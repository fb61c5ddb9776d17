module Obs = Aba_obs.Obs
module Clock = Aba_obs.Clock
module H = Aba_runtime.Harness
module Treiber = Aba_runtime.Rt_treiber
module Msq = Aba_runtime.Rt_ms_queue
module Fig3 = Aba_runtime.Rt_llsc.Packed_fig3
module Fig4 = Aba_runtime.Rt_aba.Fig4

type config = {
  domains : int;
  max_domains : int;
  ops : int;
  smoke : bool;
  crash_every : int;
  slo_ns : int;
  arrival_ns : int;
}

let config ?(smoke = false) () =
  let base =
    {
      domains = 4;
      max_domains = H.available_parallelism ();
      ops = 10_000;
      smoke;
      crash_every = 7;
      slo_ns = 10_000;
      arrival_ns = 1_000;
    }
  in
  if smoke then { base with domains = 2; max_domains = 2; ops = 500 } else base

type t = {
  name : string;
  section : string;
  doc : string;
  smoke : bool;
  run : config -> Row.t list;
  checks : Row.check list;
}

(* Monotonic: wall time (gettimeofday) is subject to NTP slew, which can
   corrupt ns/op mid-run or even send an interval negative. *)
let time_domains ~domains body =
  let t0 = Clock.now_ns () in
  let _ = H.run_domains ~n:domains body in
  Clock.elapsed_s t0

let paired_stack ~ops s pid =
  for i = 1 to ops do
    ignore (Treiber.push s ~pid i);
    ignore (Treiber.pop s ~pid)
  done

let paired_queue ~ops q pid =
  for i = 1 to ops do
    ignore (Msq.enqueue q ~pid i);
    ignore (Msq.dequeue q ~pid)
  done

(* ----- Multicore Treiber throughput ----- *)

let multicore_treiber cfg =
  let domains = cfg.domains and ops = 5 * cfg.ops in
  List.map
    (fun (name, protection) ->
      let s = Treiber.create ~protection ~capacity:1024 ~n:domains () in
      let dt = time_domains ~domains (paired_stack ~ops s) in
      Row.
        [
          ("variant", Str name);
          ("domains", Int domains);
          ("ops", Int ops);
          ("ops_per_sec", Float (float_of_int (2 * domains * ops) /. dt));
        ])
    [
      ("naive", Treiber.Tag_bits 0);
      ("tag16", Treiber.Tag_bits 16);
      ("llsc", Treiber.Llsc);
    ]

(* ----- Domain-scalability sweep -----

   The contention-management layer (padding + backoff) only shows up
   under real parallelism, which bechamel's single-domain harness cannot
   see.  The sweep runs the contended hot paths at every domain count
   from 1 to [max_domains], on both ends of the padded and backoff axes;
   the elimination part adds the elimination/combining axis to the same
   section. *)

let sweep_configs =
  [
    ("bare", false, false);
    ("padded", true, false);
    ("backoff", false, true);
    ("padded+backoff", true, true);
  ]

let sweep_row ?(elim = false) ?(exchanges = 0) ?(collisions = 0) ~bench
    ~config ~padded ~backoff ~domains ~ops ~total dt =
  Row.
    [
      ("bench", Str bench);
      ("config", Str config);
      ("padded", Bool padded);
      ("backoff", Bool backoff);
      ("elim", Bool elim);
      ("domains", Int domains);
      ("ops", Int ops);
      ("ops_per_sec", Float (float_of_int total /. dt));
      ("ns_per_op", Float (dt *. 1e9 /. float_of_int total));
      ("exchanges", Int exchanges);
      ("collisions", Int collisions);
    ]

let backoff_spec backoff =
  if backoff then Aba_primitives.Backoff.default_spec
  else Aba_primitives.Backoff.Noop

(* A paired push/pop loop keeps the stack near empty, so with several
   domains pushers and poppers actually meet — the workload the
   exchanger is for. *)
let treiber_case ~ops ~bench ~config ~padded ~backoff ~elim ~protection d =
  let espec =
    if elim then Aba_runtime.Elimination.default_spec
    else Aba_runtime.Elimination.Noop
  in
  let s =
    Treiber.create ~padded ~backoff ~elimination:espec ~protection
      ~capacity:1024 ~n:d ()
  in
  let dt = time_domains ~domains:d (paired_stack ~ops s) in
  let exchanges, collisions =
    match Treiber.elimination_stats s with
    | None -> (0, 0)
    | Some st ->
        (st.Aba_runtime.Elimination.exchanges,
         st.Aba_runtime.Elimination.collisions)
  in
  let config = if elim then config ^ "+elim" else config in
  sweep_row ~elim ~exchanges ~collisions ~bench ~config ~padded ~backoff
    ~domains:d ~ops ~total:(2 * d * ops) dt

(* Figure 4 is wait-free — no retry loop for backoff to pace — so only
   the padding axis is swept; the combining axis is the read-side
   analogue of the exchanger.  The dwrite loop also fills the register
   the dread loop then reads. *)
let fig4_case ~ops ~config ~padded ~combining d =
  let r = Fig4.create ~padded ~combining ~n:d 0 in
  let dt =
    time_domains ~domains:d (fun pid ->
        for i = 1 to ops do
          Fig4.dwrite r ~pid i
        done)
  in
  let dwrite =
    sweep_row ~bench:"fig4.dwrite" ~config ~padded ~backoff:false ~domains:d
      ~ops ~total:(d * ops) dt
  in
  let dt =
    time_domains ~domains:d (fun pid ->
        for _ = 1 to ops do
          ignore (Fig4.dread r ~pid)
        done)
  in
  let exchanges, collisions =
    match Fig4.combining_stats r with
    | None -> (0, 0)
    | Some st ->
        (st.Aba_core.Combining.adopted, st.Aba_core.Combining.fallbacks)
  in
  let dread =
    sweep_row ~elim:combining ~exchanges ~collisions ~bench:"fig4.dread"
      ~config:(if combining then config ^ "+combining" else config)
      ~padded ~backoff:false ~domains:d ~ops ~total:(d * ops) dt
  in
  if combining then [ dread ] else [ dwrite; dread ]

let scalability_sweep cfg =
  let ops = cfg.ops in
  List.concat_map
    (fun d ->
      List.concat_map
        (fun (config, padded, backoff) ->
          (* Figure 3: every domain hammers the one bounded-CAS word. *)
          let l =
            Fig3.create ~padded ~backoff:(backoff_spec backoff) ~n:d ~init:0 ()
          in
          let dt =
            time_domains ~domains:d (fun pid ->
                for i = 1 to ops do
                  ignore (Fig3.ll l ~pid);
                  ignore (Fig3.sc l ~pid i)
                done)
          in
          let fig3 =
            sweep_row ~bench:"fig3.ll+sc" ~config ~padded ~backoff ~domains:d
              ~ops ~total:(2 * d * ops) dt
          in
          (* Treiber over the Figure-3 LL/SC word: contended head plus the
             free-list traffic. *)
          let treiber =
            treiber_case ~ops ~bench:"treiber.push+pop" ~config ~padded
              ~backoff ~elim:false ~protection:Treiber.Llsc d
          in
          (* MS queue, counted-pointer variant: head, tail and the link
             words are all contended. *)
          let q =
            Msq.create ~padded ~backoff ~protection:(Msq.Tag_bits 16)
              ~capacity:1024 ~n:d ()
          in
          let dt = time_domains ~domains:d (paired_queue ~ops q) in
          let msq =
            sweep_row ~bench:"msqueue.enq+deq" ~config ~padded ~backoff
              ~domains:d ~ops ~total:(2 * d * ops) dt
          in
          [ fig3; treiber; msq ]
          @
          if backoff then []
          else fig4_case ~ops ~config ~padded ~combining:false d)
        sweep_configs)
    (List.init cfg.max_domains succ)

(* The elimination/combining end of every sweep cell, then the other two
   head protections at the production config (padded+backoff) on both
   ends of the axis: the exchanger is protection-agnostic and the claim
   is it helps all three. *)
let elimination_sweep cfg =
  let ops = cfg.ops in
  List.concat_map
    (fun d ->
      List.concat_map
        (fun (config, padded, backoff) ->
          treiber_case ~ops ~bench:"treiber.push+pop" ~config ~padded ~backoff
            ~elim:true ~protection:Treiber.Llsc d
          ::
          (if backoff then []
           else fig4_case ~ops ~config ~padded ~combining:true d))
        sweep_configs
      @ List.concat_map
          (fun (bench, protection) ->
            List.map
              (fun elim ->
                treiber_case ~ops ~bench ~config:"padded+backoff" ~padded:true
                  ~backoff:true ~elim ~protection d)
              [ false; true ])
          [
            ("treiber-tag16.push+pop", Treiber.Tag_bits 16);
            ( "treiber-hazard.push+pop",
              Treiber.Reclaimed Aba_runtime.Rt_reclaim.Hazard );
          ])
    (List.init cfg.max_domains succ)

(* ----- Latency percentiles (Obs-instrumented contended runs) -----

   The sweep reports means; tail latency is where contention actually
   hurts.  Each case runs a contended workload with a live Obs handle
   (histograms only, no trace) and reports per-kind percentiles. *)

let latency_percentiles cfg =
  let domains = min cfg.domains cfg.max_domains and ops = cfg.ops in
  let case bench setup body =
    let obs = Obs.create ~trace:0 ~n:domains () in
    let st = setup obs in
    let _ = H.run_domains ~n:domains (body st) in
    Row.of_obs obs
      Row.[ ("bench", Str bench); ("domains", Int domains); ("ops", Int ops) ]
  in
  List.concat
    [
      case "treiber-llsc"
        (fun obs ->
          Treiber.create ~obs ~protection:Treiber.Llsc ~capacity:1024
            ~n:domains ())
        (paired_stack ~ops);
      (* The hazard variant also reports [retire]: the latency spike of
         the amortised scan shows up in its p99/p999. *)
      case "treiber-hazard"
        (fun obs ->
          Treiber.create ~obs
            ~protection:(Treiber.Reclaimed Aba_runtime.Rt_reclaim.Hazard)
            ~capacity:1024 ~n:domains ())
        (paired_stack ~ops);
      case "msqueue-tag16"
        (fun obs ->
          Msq.create ~obs ~protection:(Msq.Tag_bits 16) ~capacity:1024
            ~n:domains ())
        (paired_queue ~ops);
      case "fig3"
        (fun obs ->
          Fig3.create ~padded:true ~backoff:Aba_primitives.Backoff.default_spec
            ~obs ~n:domains ~init:0 ())
        (fun l pid ->
          for i = 1 to ops do
            ignore (Fig3.ll l ~pid);
            ignore (Fig3.sc l ~pid i)
          done);
      case "fig4"
        (fun obs -> Fig4.create ~padded:true ~obs ~n:domains 0)
        (fun r pid ->
          for i = 1 to ops do
            Fig4.dwrite r ~pid i;
            ignore (Fig4.dread r ~pid)
          done);
    ]

(* ----- Bounded-queue capacity sweep -----

   The ingress tier: the lock-free ring, its blocking (backpressure)
   wrapper and the two-lock baseline, across a producers x consumers x
   capacity grid.  The skewed cells put the queue under the two boundary
   pressures — more producers than consumers against a tiny capacity
   keeps it full (enqueue [Fail] / [Wait_full] traffic), the converse
   keeps it empty ([Empty] / [Wait_empty]).  The blocking wrapper's wait
   phase is recorded separately from the ring's own operations, so the
   rows distinguish "the CAS was contended" from "the queue was at its
   bound". *)

let queue_impls =
  [
    ( "ring-lf",
      fun obs ~capacity ~n ->
        let q = Aba_queue.Rt_ring.create ~obs ~capacity ~n () in
        ( (fun ~pid v -> Aba_queue.Rt_ring.try_enqueue q ~pid v),
          fun ~pid -> Aba_queue.Rt_ring.try_dequeue q ~pid ) );
    ( "ring-blocking",
      fun obs ~capacity ~n ->
        let q = Aba_queue.Blocking.create ~obs ~capacity ~n () in
        ( (fun ~pid v -> Aba_queue.Blocking.enqueue q ~pid v),
          fun ~pid -> Aba_queue.Blocking.dequeue q ~pid ) );
    ( "two-lock",
      fun obs ~capacity ~n ->
        let q = Aba_queue.Two_lock_queue.create ~obs ~capacity ~n () in
        ( (fun ~pid v -> Aba_queue.Two_lock_queue.try_enqueue q ~pid v),
          fun ~pid -> Aba_queue.Two_lock_queue.try_dequeue q ~pid ) );
  ]

let capacity_sweep cfg =
  let ops = cfg.ops in
  let grid, capacities =
    if cfg.smoke then ([ (1, 1); (2, 1); (1, 2) ], [ 2; 64 ])
    else ([ (1, 1); (2, 1); (1, 2); (2, 2) ], [ 2; 64; 1024 ])
  in
  let cell ~producers ~consumers ~capacity (impl, build) =
    let n = producers + consumers in
    let obs = Obs.create ~trace:0 ~n () in
    let enq, deq = build obs ~capacity ~n in
    let total = producers * ops in
    let consumed = Atomic.make 0 in
    let dt =
      time_domains ~domains:n (fun pid ->
          if pid < producers then
            (* Producers push a fixed quota; a Fail/Timeout verdict is
               recorded by the queue itself, then retried here. *)
            for i = 1 to ops do
              while not (enq ~pid i) do
                Domain.cpu_relax ()
              done
            done
          else
            (* Consumers drain until every produced item is accounted
               for; the blocking dequeue's bounded wait window keeps the
               final laps from hanging once producers are done. *)
            while Atomic.get consumed < total do
              match deq ~pid with
              | Some _ -> Atomic.incr consumed
              | None -> Domain.cpu_relax ()
            done)
    in
    Row.of_obs obs
      Row.
        [
          ("impl", Str impl);
          ("producers", Int producers);
          ("consumers", Int consumers);
          ("capacity", Int capacity);
        ]
      ~tail:
        Row.
          [
            ("ops", Int ops);
            ("items_per_sec", Float (float_of_int total /. dt));
          ]
  in
  List.concat_map
    (fun (producers, consumers) ->
      List.concat_map
        (fun capacity ->
          List.concat_map (cell ~producers ~consumers ~capacity) queue_impls)
        capacities)
    grid

(* ----- Sharded service tier (open-loop SLO sweep) ----- *)

let service_sweep cfg =
  let m = cfg.max_domains in
  Service_bench.sweep ~slo_ns:cfg.slo_ns ~arrival_ns:cfg.arrival_ns
    ~structures:(if cfg.smoke then [ "stack" ] else [ "stack"; "queue" ])
    ~shards:(if cfg.smoke then [ 1; 4 ] else [ 1; 2; 4 ])
    ~domains:(List.sort_uniq compare [ 1; min 2 m; min 4 m; m ])
    ~ops:cfg.ops

(* ----- Protection sweep (wraparound-safe tags vs reclaimers) -----

   The same contended paired churn as the percentile cases, across every
   protection regime of both structures.  The announced rows run at
   k = 8 (half window 128) so the crossing scans actually fire at smoke
   op counts and show up as [scan] rows — their count per op is the "no
   per-op scan" claim made measurable.  Reclaimer rows have no scan rows
   at all (their cost shows as [retire] events instead). *)

let protection_names =
  [ "tag16"; "announced8"; "hazard"; "epoch"; "guarded" ]

let protection_sweep cfg =
  let domains = min cfg.domains cfg.max_domains and ops = cfg.ops in
  let case structure protection setup body =
    let obs = Obs.create ~trace:0 ~n:domains () in
    let st = setup obs in
    let dt = time_domains ~domains (body st) in
    Row.of_obs obs
      Row.
        [
          ("structure", Str structure);
          ("protection", Str protection);
          ("domains", Int domains);
          ("ops", Int ops);
        ]
      ~tail:
        Row.[ ("ops_per_sec", Float (float_of_int (2 * domains * ops) /. dt)) ]
  in
  let over structure build body protections =
    List.concat
      (List.map2
         (fun name protection ->
           case structure name (fun obs -> build obs protection) body)
         protection_names protections)
  in
  over "treiber"
    (fun obs protection ->
      Treiber.create ~obs ~protection ~capacity:1024 ~n:domains ())
    (paired_stack ~ops)
    Treiber.
      [
        Tag_bits 16;
        Announced 8;
        Reclaimed Aba_runtime.Rt_reclaim.Hazard;
        Reclaimed Aba_runtime.Rt_reclaim.Epoch;
        Reclaimed Aba_runtime.Rt_reclaim.Guarded;
      ]
  @ over "msqueue"
      (fun obs protection ->
        Msq.create ~obs ~protection ~capacity:1024 ~n:domains ())
      (paired_queue ~ops)
      Msq.
        [
          Tag_bits 16;
          Announced 8;
          Reclaimed Aba_runtime.Rt_reclaim.Hazard;
          Reclaimed Aba_runtime.Rt_reclaim.Epoch;
          Reclaimed Aba_runtime.Rt_reclaim.Guarded;
        ]

(* ----- Recovery sweep (detectable stack crash-churn) -----

   The cost of detectability under fire: the detectable Treiber stack
   churned with the harness's crash plan — every [crash_every]-th round
   per domain is killed at a randomized shared access and resolved by the
   stack's recovery protocol — across the three head protections, with
   the exactly-once multiset audit as the pass/fail.  A crash-free
   control run (crash_period 0) pins the baseline. *)

let recovery_sweep cfg =
  let domains = min cfg.domains cfg.max_domains
  and ops = min cfg.ops 5_000 in
  let case name protection crash_period =
    let m = Aba_primitives.Rt_mem.make ~n:domains () in
    let module M = (val m : Aba_primitives.Mem_intf.S) in
    let module D = Aba_core.Detectable.Make (M) in
    let fuse = H.Fuse.create ~n:domains in
    let st =
      D.Stack.create ~protection ~tag_bits:8 ~on_step:(H.Fuse.on_step fuse)
        ~name:"dstk" ~n:domains
        ~capacity:(((domains + 2) * ops) + 8)
        ()
    in
    let recover ~pid =
      let done_ r_pushed r_popped =
        { H.completed = true; r_pushed; r_popped }
      in
      match D.Stack.recover st ~pid with
      | Aba_core.Detectable.R_none ->
          { H.completed = false; r_pushed = []; r_popped = [] }
      | Aba_core.Detectable.R_pushed v -> done_ [ v ] []
      | Aba_core.Detectable.R_popped (Some v) -> done_ [] [ v ]
      | Aba_core.Detectable.R_popped None -> done_ [] []
    in
    let crashes =
      if crash_period = 0 then None
      else
        Some
          {
            H.fuse;
            crash_every = crash_period;
            fuse_steps = H.default_fuse_steps;
            recover;
          }
    in
    let obs = Obs.create ~trace:0 ~n:domains () in
    let t0 = Clock.now_ns () in
    let report =
      H.churn ~mix:H.Paired ~obs ?crashes ~n:domains ~ops
        ~push:(fun ~pid v ->
          D.Stack.push st ~pid v;
          true)
        ~pop:(fun ~pid -> D.Stack.pop st ~pid)
        ()
    in
    let dt = Clock.elapsed_s t0 in
    (match report.H.outcome with
    | Ok () -> ()
    | Error e -> Printf.eprintf "recovery audit failure (%s): %s\n" name e);
    Row.of_obs obs
      Row.
        [
          ("structure", Str "dstack");
          ("protection", Str name);
          ("domains", Int domains);
          ("ops", Int ops);
          ("crash_period", Int crash_period);
        ]
      ~tail:
        Row.
          [
            ("ops_per_sec", Float (float_of_int (2 * domains * ops) /. dt));
            ("crashes", Int report.H.crashed);
            ("recoveries", Int report.H.recovered);
            ("audit_ok", Bool (Result.is_ok report.H.outcome));
          ]
  in
  List.concat_map
    (fun (name, protection) ->
      (* Crash-free control first, then the crash-churn run. *)
      case name protection 0 @ case name protection cfg.crash_every)
    Aba_core.Detectable.
      [ ("tag8", Tag_bits); ("llsc", Llsc); ("announced8", Announced) ]

(* ----- The registry ----- *)

let percentile_keys =
  [ "kind"; "count"; "retries"; "p50_ns"; "p90_ns"; "p99_ns"; "p999_ns" ]

let sweep_keys =
  [
    "bench"; "config"; "padded"; "backoff"; "elim"; "domains"; "ops";
    "ops_per_sec"; "ns_per_op"; "exchanges"; "collisions";
  ]

let kind r = Row.str r "kind"

let all =
  Row.
    [
      {
        name = "treiber";
        section = "multicore_treiber";
        doc = "Multicore Treiber stack throughput per protection";
        smoke = false;
        run = multicore_treiber;
        checks =
          [ non_empty; keys [ "variant"; "domains"; "ops"; "ops_per_sec" ] ];
      };
      {
        name = "reclaim";
        section = "reclamation";
        doc = "Reclamation schemes: throughput vs peak limbo space (E11)";
        smoke = false;
        run =
          (fun cfg ->
            Experiments.reclaim_rows ~domains:cfg.domains ~ops:(2 * cfg.ops)
              ~capacity:32 ());
        checks =
          [
            non_empty;
            keys
              [
                "structure"; "scheme"; "domains"; "ops"; "capacity";
                "ops_per_sec"; "retired"; "reclaimed"; "peak_in_limbo"; "ok";
              ];
            all "multiset audit failed" (fun r -> bool r "ok");
          ];
      };
      {
        name = "sweep";
        section = "scalability_sweep";
        doc = "Domain-scalability sweep over the padding and backoff axes";
        smoke = true;
        run = scalability_sweep;
        checks = [ non_empty; keys sweep_keys ];
      };
      {
        name = "elimination";
        section = "scalability_sweep";
        doc = "Scalability sweep, elimination/combining axis";
        smoke = true;
        run = elimination_sweep;
        checks =
          [
            keys sweep_keys;
            exists "no elimination-on rows" (fun r -> bool r "elim");
            exists "no elimination-off rows" (fun r -> not (bool r "elim"));
          ];
      };
      {
        name = "percentiles";
        section = "latency_percentiles";
        doc = "Per-kind latency percentiles of contended runs (ns)";
        smoke = true;
        run = latency_percentiles;
        checks =
          percentile_rows ("bench" :: "domains" :: "ops" :: percentile_keys);
      };
      {
        name = "capacity";
        section = "capacity_sweep";
        doc = "Bounded-queue capacity sweep (E15)";
        smoke = true;
        run = capacity_sweep;
        checks =
          percentile_rows
            ("impl" :: "producers" :: "consumers" :: "capacity" :: "ops"
           :: "items_per_sec" :: percentile_keys)
          @ [
              values_are "impl" [ "ring-lf"; "ring-blocking"; "two-lock" ];
              all "wait kinds outside the blocking wrapper" (fun r ->
                  (kind r <> "wait-full" && kind r <> "wait-empty")
                  || str r "impl" = "ring-blocking");
            ];
      };
      {
        name = "service";
        section = "service_sweep";
        doc = "Sharded service tier, open-loop SLO sweep (E17)";
        smoke = true;
        run = service_sweep;
        checks =
          [
            non_empty;
            keys
              [
                "structure"; "scope"; "shards"; "domains"; "steal";
                "combining"; "skew"; "ops"; "count"; "ops_per_sec"; "p50_ns";
                "p90_ns"; "p99_ns"; "p999_ns"; "slo_ns"; "slo"; "steals";
                "stolen"; "spills"; "batched";
              ];
            monotone;
            all "slo out of [0, 1]" (fun r ->
                0. <= num r "slo" && num r "slo" <= 1.);
            all "steal counters nonzero with stealing off" (fun r ->
                bool r "steal" || (int r "steals" = 0 && int r "stolen" = 0));
            all "batched nonzero with combining off" (fun r ->
                bool r "combining" || int r "batched" = 0);
            exists "no e2e rows" (fun r -> str r "scope" = "e2e");
            exists "no merged shards rows" (fun r -> str r "scope" = "shards");
            exists "1-shard baseline missing" (fun r -> int r "shards" = 1);
            exists "no steal-enabled sharded cell" (fun r ->
                int r "shards" > 1 && bool r "steal");
            exists "skewed cells missing" (fun r -> str r "skew" = "hot");
          ];
      };
      {
        name = "protections";
        section = "protection_sweep";
        doc = "Protection sweep: announced tags vs reclaimers (E18)";
        smoke = true;
        run = protection_sweep;
        checks =
          percentile_rows
            ("structure" :: "protection" :: "domains" :: "ops" :: "ops_per_sec"
           :: percentile_keys)
          @ [
              all "scan events outside the announced protection" (fun r ->
                  kind r <> "scan"
                  || String.starts_with ~prefix:"announced"
                       (str r "protection"));
              values_are
                ~where:(fun r -> str r "structure" = "treiber")
                "protection" protection_names;
              values_are
                ~where:(fun r -> str r "structure" = "msqueue")
                "protection" protection_names;
              exists "announced rows emitted no crossing-scan events" (fun r ->
                  kind r = "scan");
              (* One scan per half-window of installs, never per op. *)
              all "scans not amortised" (fun r ->
                  kind r <> "scan"
                  || int r "count" * 64 <= int r "ops" * int r "domains" * 2);
            ];
      };
      {
        name = "recovery";
        section = "recovery_sweep";
        doc = "Detectable-stack crash-churn recovery sweep (E19)";
        smoke = true;
        run = recovery_sweep;
        checks =
          percentile_rows
            ("structure" :: "protection" :: "domains" :: "ops"
           :: "crash_period" :: "ops_per_sec" :: "crashes" :: "recoveries"
           :: "audit_ok" :: percentile_keys)
          @ [
              all "exactly-once audit failed" (fun r -> bool r "audit_ok");
              (* Control run: no fuse armed, so the crash/recover counters
                 and event kinds must be entirely absent. *)
              all "crash counters nonzero with crashes off" (fun r ->
                  int r "crash_period" <> 0
                  || (int r "crashes" = 0 && int r "recoveries" = 0));
              all "crash events recorded with crashes off" (fun r ->
                  int r "crash_period" <> 0
                  || (kind r <> "crash" && kind r <> "recover"));
              all "crash run injected no crashes" (fun r ->
                  int r "crash_period" = 0 || int r "crashes" > 0);
              values_are "protection" [ "tag8"; "llsc"; "announced8" ];
              exists "no crash rows in the crash runs" (fun r ->
                  int r "crash_period" > 0 && kind r = "crash");
              exists "no recover rows in the crash runs" (fun r ->
                  int r "crash_period" > 0 && kind r = "recover");
            ];
      };
    ]

let find name = List.find_opt (fun p -> p.name = name) all
let names () = List.map (fun p -> p.name) all

let run p cfg =
  Printf.printf "\n%s [%s]:\n" p.doc p.name;
  let rows = p.run cfg in
  Row.print_table rows;
  rows

let violations p rows =
  List.concat_map (fun check -> check rows) p.checks
  |> List.map (fun v -> p.name ^ ": " ^ v)

(* ----- The bench document ----- *)

(* Provenance for archived result files: enough to re-run the benchmark on
   the same code and know what produced the numbers. *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let meta () =
  let tm = Unix.gmtime (Unix.time ()) in
  Json.Obj
    [
      ("schema_version", Json.Int 8);
      ("git_commit", Json.Str (git_commit ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("available_domains", Json.Int (H.available_parallelism ()));
      ( "timestamp_utc",
        Json.Str
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ"
             (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
             tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec) );
    ]

let sections () =
  List.fold_left
    (fun acc p -> if List.mem p.section acc then acc else acc @ [ p.section ])
    [] all

let document results =
  Json.Obj
    (("meta", meta ())
    :: List.map
         (fun section ->
           ( section,
             Json.Arr
               (List.concat_map
                  (fun (p, rows) ->
                    if p.section = section then List.map Row.to_json rows
                    else [])
                  results) ))
         (sections ()))
