(** Open-loop benchmark of the sharded service tier.

    Each cell drives {!Aba_apps.Service} with a Poisson arrival process:
    inter-arrival gaps are exponential draws from the per-pid
    deterministic stream ({!Aba_primitives.Rand}), an op waits until its
    intended arrival instant but is {e never} delayed by the service
    being slow — so when the service falls behind, the backlog shows up
    as queueing delay in the end-to-end latency, exactly as a saturated
    production service would experience it.  Latency is measured from
    the intended arrival, not the actual start.

    Every cell yields one "e2e" row (client-observed percentiles, exact
    SLO attainment), one "shards" row (all shard-operation service
    times, merged across shards via {!Aba_obs.Histogram.merge}) and one
    "shard<i>" row per shard (per-shard imbalance made visible).  The
    sweep crosses shard count x domain count x steal x combining, with
    the 1-shard steal-off cells as the single-instance baseline, and
    appends skewed-key ("hot") cells at the largest shard count — the
    steal on/off pair whose p999 gap is the work-stealing claim. *)

val sweep :
  slo_ns:int ->
  arrival_ns:int ->
  structures:string list ->
  shards:int list ->
  domains:int list ->
  ops:int ->
  Row.t list
(** The full grid (see above).  [slo_ns] is the SLO budget, [arrival_ns]
    the mean inter-arrival per domain.  Each row carries [structure],
    [scope] ([e2e | shards | shard<i>]), the cell's axes, [count],
    [ops_per_sec], the percentiles, [slo_ns], [slo] (fraction of ops
    within [slo_ns]: exact on e2e rows, bucket-conservative
    ({!Aba_obs.Histogram.fraction_le}) on the histogram-derived rows),
    and the router's [steals], [stolen], [spills] and [batched]
    (flat-combining ops served in others' rounds) counters. *)
