open Aba_primitives
module Sv = Aba_apps.Service
module Obs = Aba_obs.Obs
module Histogram = Aba_obs.Histogram
module Clock = Aba_obs.Clock

(* The two concrete services reduced to the closures the workload
   drives; stats come back as a plain tuple because the two routers'
   stats records are distinct nominal types. *)
type svc = {
  s_push : pid:int -> key:int -> int -> bool;
  s_pop : pid:int -> key:int -> int option;
  s_stats : unit -> int * int * int;  (** steals, stolen, spills *)
  s_batched : unit -> int;
}

let make_service structure ~shards ~capacity ~n ~steal ~combining ~shard_obs =
  match structure with
  | "stack" ->
      let t =
        Sv.Stack_service.create ~steal ~combining ~shard_obs ~shards ~capacity
          ~n ()
      in
      {
        s_push = (fun ~pid ~key v -> Sv.Stack_service.push t ~pid ~key v);
        s_pop = (fun ~pid ~key -> Sv.Stack_service.pop t ~pid ~key);
        s_stats =
          (fun () ->
            let s = Sv.Stack_service.stats t in
            Sv.Stack_router.(s.steals, s.stolen, s.spills));
        s_batched =
          (fun () ->
            match Sv.Stack_service.combining_stats t with
            | None -> 0
            | Some c -> c.Aba_core.Combining.batched);
      }
  | "queue" ->
      let t =
        Sv.Queue_service.create ~steal ~combining ~shard_obs ~shards ~capacity
          ~n ()
      in
      {
        s_push = (fun ~pid ~key v -> Sv.Queue_service.push t ~pid ~key v);
        s_pop = (fun ~pid ~key -> Sv.Queue_service.pop t ~pid ~key);
        s_stats =
          (fun () ->
            let s = Sv.Queue_service.stats t in
            Sv.Queue_router.(s.steals, s.stolen, s.spills));
        s_batched =
          (fun () ->
            match Sv.Queue_service.combining_stats t with
            | None -> 0
            | Some c -> c.Aba_core.Combining.batched);
      }
  | s -> invalid_arg ("Service_bench: unknown structure " ^ s)

let key_space = 4096

(* Deterministic exponential inter-arrival: the quantile transform over
   the per-pid xorshift stream, so a cell replays the same arrival
   process run to run and the Poisson process is the same whatever the
   service does with it — the defining property of an open loop. *)
let exp_draw rand ~mean_ns =
  let u = float_of_int (1 + Rand.next_int rand 1_000_000) /. 1_000_000. in
  -.mean_ns *. Float.log u

(* One cell: run the open-loop workload, then cut the three row scopes
   out of the same execution. *)
let cell ~structure ~shards ~domains ~steal ~combining ~skew ~ops ~slo_ns
    ~arrival_ns =
  let shard_obs =
    Array.init shards (fun _ -> Obs.create ~trace:0 ~n:domains ())
  in
  let svc =
    make_service structure ~shards ~capacity:4096 ~n:domains ~steal ~combining
      ~shard_obs:(fun s -> shard_obs.(s))
  in
  let e2e = Histogram.create ~n:domains () in
  let slo_hits = Array.make domains 0 in
  let hot_key = 0 in
  let mean_ns = float_of_int arrival_ns in
  let t0 = Clock.now_ns () in
  let _ =
    Aba_runtime.Harness.run_domains ~n:domains (fun pid ->
        let rand = Rand.create ~pid in
        let start = Clock.now_ns () in
        let intended = ref (float_of_int start) in
        let hits = ref 0 in
        for i = 1 to ops do
          (* Draw the next intended arrival; wait if we are early, never
             if we are late — the backlog is the point of an open loop. *)
          intended := !intended +. exp_draw rand ~mean_ns;
          let due = int_of_float !intended in
          while Clock.now_ns () < due do
            Domain.cpu_relax ()
          done;
          let key =
            match skew with
            | "hot" ->
                (* 7 in 8 ops hit one key: one shard saturates while its
                   neighbours idle — the workload stealing exists for. *)
                if Rand.next_int rand 8 < 7 then hot_key
                else Rand.next_int rand key_space
            | _ -> Rand.next_int rand key_space
          in
          (if i land 1 = 1 then ignore (svc.s_push ~pid ~key i : bool)
           else ignore (svc.s_pop ~pid ~key : int option));
          let lat = Clock.now_ns () - due in
          Histogram.record e2e ~pid lat;
          if lat <= slo_ns then incr hits
        done;
        slo_hits.(pid) <- !hits)
  in
  let dt = Clock.elapsed_s t0 in
  let total = domains * ops in
  let steals, stolen, spills = svc.s_stats () in
  let batched = svc.s_batched () in
  (* [scope] distinguishes the measurement surface: "e2e" is the
     client-observed open-loop latency (completion minus {e intended}
     arrival, so queueing delay counts), "shards" is every shard
     operation's service time merged across shards through
     {!Histogram.merge}, and "shard<i>" is one shard alone.  [slo] is the
     fraction of ops within [slo_ns]: exact on the e2e row (counted sample
     by sample), bucket-conservative on the histogram-derived rows. *)
  let base ~scope ~slo h =
    Row.
      [
        ("structure", Str structure);
        ("scope", Str scope);
        ("shards", Int shards);
        ("domains", Int domains);
        ("steal", Bool steal);
        ("combining", Bool combining);
        ("skew", Str skew);
        ("ops", Int ops);
        ("count", Int (Histogram.count h));
        ("ops_per_sec", Float (float_of_int total /. dt));
      ]
    @ Row.percentiles h
    @ Row.
        [
          ("slo_ns", Int slo_ns);
          ("slo", Float slo);
          ("steals", Int steals);
          ("stolen", Int stolen);
          ("spills", Int spills);
          ("batched", Int batched);
        ]
  in
  (* The e2e row: exact SLO attainment from the per-sample counters. *)
  let e2e_row =
    base ~scope:"e2e"
      ~slo:
        (float_of_int (Array.fold_left ( + ) 0 slo_hits)
        /. float_of_int total)
      e2e
  in
  (* Shard service times: each shard's per-kind histograms, merged
     bucket-wise — first per shard, then across all shards. *)
  let shard_hists s =
    List.filter_map (fun k -> Obs.histogram shard_obs.(s) k) Obs.all_kinds
  in
  let shard_row s =
    let h = Histogram.merge (shard_hists s) in
    base
      ~scope:(Printf.sprintf "shard%d" s)
      ~slo:(Histogram.fraction_le h slo_ns)
      h
  in
  let merged =
    Histogram.merge (List.concat_map shard_hists (List.init shards Fun.id))
  in
  let merged_row =
    base ~scope:"shards" ~slo:(Histogram.fraction_le merged slo_ns) merged
  in
  e2e_row :: merged_row :: List.init shards shard_row

let sweep ~slo_ns ~arrival_ns ~structures ~shards ~domains ~ops =
  let cells = ref [] in
  let add c = cells := c :: !cells in
  List.iter
    (fun structure ->
      List.iter
        (fun d ->
          List.iter
            (fun s ->
              (* shards = 1 is the single-instance baseline: there is
                 nobody to steal from, so only the steal-off ends run. *)
              let steals = if s = 1 then [ false ] else [ false; true ] in
              List.iter
                (fun steal ->
                  List.iter
                    (fun combining ->
                      add
                        (cell ~structure ~shards:s ~domains:d ~steal
                           ~combining ~skew:"uniform" ~ops ~slo_ns ~arrival_ns))
                    [ false; true ])
                steals)
            shards;
          (* The skewed-key cells: the steal on/off pair whose p999 gap
             is the work-stealing claim. *)
          let s_max = List.fold_left max 1 shards in
          if s_max > 1 then
            List.iter
              (fun steal ->
                add
                  (cell ~structure ~shards:s_max ~domains:d ~steal
                     ~combining:false ~skew:"hot" ~ops ~slo_ns ~arrival_ns))
              [ false; true ])
        domains)
    structures;
  List.concat (List.rev !cells)
