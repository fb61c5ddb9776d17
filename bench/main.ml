(** Benchmark harness.

    Three layers, together regenerating every paper-derived table and
    figure:

    1. The experiment tables (E1..E7 from DESIGN.md) — step counts, space,
       covering adversary, wraparound, tradeoff products — printed by the
       shared {!Aba_experiments.Experiments} runners.  These are the
       quantities the paper's theorems are about, measured in the
       simulator's step model where they are exact.
    2. Bechamel wall-clock benchmarks of the runtime ([Atomic]-based)
       ports, one group per theorem/figure plus the hot-path allocation
       groups.
    3. The multicore bench parts of {!Aba_experiments.Part} (throughput,
       scalability, latency percentiles, queues, service, protections,
       recovery), the same code [aba_lab <part>] runs, emitted as JSON
       with [--json] and checked against their invariants on every run.

    Wall-clock numbers depend on the host; the step-model tables are the
    primary result. *)

open Bechamel
open Toolkit
module Part = Aba_experiments.Part
module Row = Aba_experiments.Row

(* ----- Bechamel plumbing ----- *)

(* The one bechamel reporter: OLS over the run predictor, monotonic clock
   always, minor-heap words on request — for the groups whose claim is "no
   allocation on the hot path". *)
let benchmark_report ?(alloc = false) name tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances =
    if alloc then Instance.[ monotonic_clock; minor_allocated ]
    else Instance.[ monotonic_clock ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name tests) in
  let estimate results key =
    match Hashtbl.find_opt results key with
    | None -> nan
    | Some ols -> (
        match Analyze.OLS.estimates ols with
        | Some [ t ] -> t
        | Some _ | None -> nan)
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs =
    if alloc then Some (Analyze.all ols Instance.minor_allocated raw) else None
  in
  let keys =
    List.sort compare (Hashtbl.fold (fun key _ acc -> key :: acc) times [])
  in
  Printf.printf "\n%s:\n" name;
  Row.print_table
    (List.map
       (fun key ->
         Row.[ ("bench", Str key); ("ns_per_op", Float (estimate times key)) ]
         @
         match allocs with
         | Some a -> Row.[ ("minor_words_per_op", Float (estimate a key)) ]
         | None -> [])
       keys)

let staged f = Staged.stage f

(* ----- Runtime micro-benchmarks, one group per theorem/figure ----- *)

(* Theorem 3 / Figure 4: O(1) DRead/DWrite, flat across n. *)
let thm3_fig4_tests =
  List.concat_map
    (fun n ->
      let r = Aba_runtime.Rt_aba.Fig4.create ~n 0 in
      ignore (Aba_runtime.Rt_aba.Fig4.dread r ~pid:1);
      [
        Test.make
          ~name:(Printf.sprintf "fig4.dread n=%d" n)
          (staged (fun () -> ignore (Aba_runtime.Rt_aba.Fig4.dread r ~pid:1)));
        Test.make
          ~name:(Printf.sprintf "fig4.dwrite n=%d" n)
          (staged (fun () -> Aba_runtime.Rt_aba.Fig4.dwrite r ~pid:0 7));
      ])
    [ 2; 8; 32 ]

(* Theorem 2 / Figure 3: one bounded CAS word; uncontended ops are cheap,
   the O(n) loops only bite under contention (shown in the step tables). *)
let thm2_fig3_tests =
  List.concat_map
    (fun n ->
      let l = Aba_runtime.Rt_llsc.Packed_fig3.create ~n ~init:0 () in
      [
        Test.make
          ~name:(Printf.sprintf "fig3.ll+sc n=%d" n)
          (staged (fun () ->
               ignore (Aba_runtime.Rt_llsc.Packed_fig3.ll l ~pid:1);
               ignore (Aba_runtime.Rt_llsc.Packed_fig3.sc l ~pid:1 5)));
        Test.make
          ~name:(Printf.sprintf "fig3.vl n=%d" n)
          (staged (fun () ->
               ignore (Aba_runtime.Rt_llsc.Packed_fig3.vl l ~pid:1)));
      ])
    [ 2; 8; 32 ]

(* Moir-style boxed LL/SC (the unbounded comparison point, [26]). *)
let moir_tests =
  let l = Aba_runtime.Rt_llsc.Boxed.create ~n:8 ~init:0 in
  [
    Test.make ~name:"moir.ll+sc n=8"
      (staged (fun () ->
           ignore (Aba_runtime.Rt_llsc.Boxed.ll l ~pid:1);
           ignore (Aba_runtime.Rt_llsc.Boxed.sc l ~pid:1 5)));
  ]

(* Theorem 4 / Figure 5 + intro: ABA-detecting register flavours. *)
let aba_register_tests =
  let stamped = Aba_runtime.Rt_aba.Stamped.create ~n:8 0 in
  let from_llsc = Aba_runtime.Rt_aba.From_llsc.create ~n:8 ~init:0 () in
  [
    Test.make ~name:"stamped.dread n=8"
      (staged (fun () ->
           ignore (Aba_runtime.Rt_aba.Stamped.dread stamped ~pid:1)));
    Test.make ~name:"stamped.dwrite n=8"
      (staged (fun () -> Aba_runtime.Rt_aba.Stamped.dwrite stamped ~pid:0 7));
    Test.make ~name:"thm2.dread n=8"
      (staged (fun () ->
           ignore (Aba_runtime.Rt_aba.From_llsc.dread from_llsc ~pid:1)));
    Test.make ~name:"thm2.dwrite n=8"
      (staged (fun () ->
           Aba_runtime.Rt_aba.From_llsc.dwrite from_llsc ~pid:0 7));
  ]

(* The hot-path allocation claim of the functor ports: [Rt_llsc.Packed_fig3]
   and [Rt_aba.Fig4] are the lib/core functors instantiated over [Rt_mem],
   and their hot paths allocate nothing beyond the result (0 minor
   words/op on ll+sc with padding on: the contention-management layout
   costs nothing per operation). *)
let alloc_tests =
  let n = 8 in
  let llsc =
    Aba_runtime.Rt_llsc.Packed_fig3.create ~padded:true ~n ~init:0 ()
  in
  let fig4 = Aba_runtime.Rt_aba.Fig4.create ~n 0 in
  ignore (Aba_runtime.Rt_aba.Fig4.dread fig4 ~pid:1);
  [
    Test.make ~name:"fig3.ll+sc padded n=8"
      (staged (fun () ->
           ignore (Aba_runtime.Rt_llsc.Packed_fig3.ll llsc ~pid:1);
           ignore (Aba_runtime.Rt_llsc.Packed_fig3.sc llsc ~pid:1 5)));
    Test.make ~name:"fig4.dread n=8"
      (staged (fun () -> ignore (Aba_runtime.Rt_aba.Fig4.dread fig4 ~pid:1)));
    Test.make ~name:"fig4.dwrite n=8"
      (staged (fun () -> Aba_runtime.Rt_aba.Fig4.dwrite fig4 ~pid:0 7));
  ]

(* Motivation: Treiber stack push+pop latency per protection, including
   the three reclaimer-backed variants (uncontended cost of a protect +
   retire per pop). *)
let treiber_tests =
  List.map
    (fun (name, protection) ->
      let s = Aba_runtime.Rt_treiber.create ~protection ~capacity:64 ~n:8 () in
      Test.make ~name:(Printf.sprintf "treiber.%s push+pop" name)
        (staged (fun () ->
             ignore (Aba_runtime.Rt_treiber.push s ~pid:1 42);
             ignore (Aba_runtime.Rt_treiber.pop s ~pid:1))))
    [
      ("naive", Aba_runtime.Rt_treiber.Tag_bits 0);
      ("tag16", Aba_runtime.Rt_treiber.Tag_bits 16);
      ("announced", Aba_runtime.Rt_treiber.Announced 12);
      ("llsc", Aba_runtime.Rt_treiber.Llsc);
      ("hazard", Aba_runtime.Rt_treiber.Reclaimed Aba_runtime.Rt_reclaim.Hazard);
      ("epoch", Aba_runtime.Rt_treiber.Reclaimed Aba_runtime.Rt_reclaim.Epoch);
      ( "guarded",
        Aba_runtime.Rt_treiber.Reclaimed Aba_runtime.Rt_reclaim.Guarded );
    ]

(* Elimination & combining hot paths, single-domain.  With no counterparty
   every exchange attempt times out after its bounded spin window — the
   price a lightly-contended operation pays for visiting the exchanger —
   and every combining read wins the claim and runs the real scan.  The
   two exchange rows are the allocation claim of the layer: 0.00 minor
   words/op (the slot protocol is raw-int CAS, the per-pid state is
   mutable fields, the retry loops are module-level recursion).  The
   treiber and dread rows allocate only their result ([Some v] / the
   flag pair), same as their elimination-free counterparts. *)
let elimination_hotpath_tests =
  let spec =
    Aba_runtime.Elimination.Exchanger
      { slots = 1; window = 4; backoff = Aba_primitives.Backoff.Noop }
  in
  let e = Aba_runtime.Elimination.create ~spec ~n:2 () in
  let stack =
    Aba_runtime.Rt_treiber.create
      ~protection:(Aba_runtime.Rt_treiber.Tag_bits 16) ~elimination:spec
      ~capacity:64 ~n:2 ()
  in
  let combined = Aba_runtime.Rt_aba.Fig4.create ~combining:true ~n:8 0 in
  ignore (Aba_runtime.Rt_aba.Fig4.dread combined ~pid:1);
  [
    Test.make ~name:"elim.exchange_push timeout"
      (staged (fun () ->
           ignore (Aba_runtime.Elimination.exchange_push e ~pid:0 42)));
    Test.make ~name:"elim.exchange_pop timeout"
      (staged (fun () ->
           ignore (Aba_runtime.Elimination.exchange_pop e ~pid:0)));
    Test.make ~name:"treiber+elim push+pop uncontended"
      (staged (fun () ->
           ignore (Aba_runtime.Rt_treiber.push stack ~pid:1 42);
           ignore (Aba_runtime.Rt_treiber.pop stack ~pid:1)));
    Test.make ~name:"fig4.dread combining claim path"
      (staged (fun () ->
           ignore (Aba_runtime.Rt_aba.Fig4.dread combined ~pid:1)));
  ]

(* Motivation: MS queue enqueue+dequeue latency, counted pointers vs the
   hazard-protocol reclaimed variants. *)
let msqueue_tests =
  List.map
    (fun (name, protection) ->
      let q = Aba_runtime.Rt_ms_queue.create ~protection ~capacity:64 ~n:8 () in
      Test.make ~name:(Printf.sprintf "msqueue.%s enq+deq" name)
        (staged (fun () ->
             ignore (Aba_runtime.Rt_ms_queue.enqueue q ~pid:1 42);
             ignore (Aba_runtime.Rt_ms_queue.dequeue q ~pid:1))))
    [
      ("naive", Aba_runtime.Rt_ms_queue.Tag_bits 0);
      ("tag16", Aba_runtime.Rt_ms_queue.Tag_bits 16);
      ("announced", Aba_runtime.Rt_ms_queue.Announced 12);
      ( "hazard",
        Aba_runtime.Rt_ms_queue.Reclaimed Aba_runtime.Rt_reclaim.Hazard );
      ("epoch", Aba_runtime.Rt_ms_queue.Reclaimed Aba_runtime.Rt_reclaim.Epoch);
      ( "guarded",
        Aba_runtime.Rt_ms_queue.Reclaimed Aba_runtime.Rt_reclaim.Guarded );
    ]

(* Ablation: Figure 3's O(n) retry loops under interference, as exact
   simulator step counts (the wall clock cannot see scheduling). *)
let ablation_fig3 () =
  print_endline "\nAblation: figure 3 under interference (simulator steps)";
  Printf.printf "%-6s %14s %14s\n" "n" "LL worst steps" "SC worst steps";
  List.iter
    (fun n ->
      let m =
        Aba_lowerbound.Tradeoff.measure_llsc ~label:"fig3"
          Aba_core.Instances.llsc_fig3 ~n
      in
      Printf.printf "%-6d %14d %14d\n" n m.Aba_lowerbound.Tradeoff.worst_ll
        m.Aba_lowerbound.Tradeoff.worst_sc)
    [ 3; 4; 8; 16; 24; 32 ]

(* The ring's hot-path allocation claim: 0.00 minor words/op on an
   uncontended enqueue + [dequeue_or] pair (the counters are immediate-int
   hardware CAS words, the retry loops are module-level recursion, and
   [dequeue_or] returns the bare int — [try_dequeue]'s only allocation
   would be its [Some] box).  The two-lock baseline rides along for the
   time column: what a Mutex pair per op costs even uncontended. *)
let ring_hotpath_tests =
  let ring = Aba_queue.Rt_ring.create ~capacity:64 ~n:2 () in
  let tl = Aba_queue.Two_lock_queue.create ~capacity:64 ~n:2 () in
  (* One resident element: both ends of each pair always succeed. *)
  ignore (Aba_queue.Rt_ring.try_enqueue ring ~pid:0 1);
  ignore (Aba_queue.Two_lock_queue.try_enqueue tl ~pid:0 1);
  [
    Test.make ~name:"ring.enq+deq_or n=2"
      (staged (fun () ->
           ignore (Aba_queue.Rt_ring.try_enqueue ring ~pid:1 42);
           ignore (Aba_queue.Rt_ring.dequeue_or ring ~pid:1 ~default:0)));
    Test.make ~name:"two_lock.enq+deq_or n=2"
      (staged (fun () ->
           ignore (Aba_queue.Two_lock_queue.try_enqueue tl ~pid:1 42);
           ignore (Aba_queue.Two_lock_queue.dequeue_or tl ~pid:1 ~default:0)));
  ]

(* The announced protection's hot-path claim: an uncontended push +
   [pop_or] pair costs {e zero} minor words and no per-op retire or scan
   — the head is one packed atomic int, the announcement a strided-array
   write of an immediate, and [pop_or] returns the bare int.  The tag16
   row is the baseline it must match (same packed word, no announcement);
   the plain [pop] rows allocate only their [Some] box.  Crossing scans
   are amortised away entirely here: 2^11 installs per scan at k = 12,
   invisible at bechamel's sample sizes. *)
let announced_hotpath_tests =
  let tag =
    Aba_runtime.Rt_treiber.create
      ~protection:(Aba_runtime.Rt_treiber.Tag_bits 16) ~capacity:64 ~n:2 ()
  in
  let ann =
    Aba_runtime.Rt_treiber.create
      ~protection:(Aba_runtime.Rt_treiber.Announced 12) ~capacity:64 ~n:2 ()
  in
  let q =
    Aba_runtime.Rt_ms_queue.create
      ~protection:(Aba_runtime.Rt_ms_queue.Announced 12) ~capacity:64 ~n:2 ()
  in
  (* One resident element: both ends of every pair always succeed. *)
  ignore (Aba_runtime.Rt_treiber.push tag ~pid:0 1 : bool);
  ignore (Aba_runtime.Rt_treiber.push ann ~pid:0 1 : bool);
  ignore (Aba_runtime.Rt_ms_queue.enqueue q ~pid:0 1 : bool);
  [
    Test.make ~name:"treiber-tag16.push+pop_or baseline"
      (staged (fun () ->
           ignore (Aba_runtime.Rt_treiber.push tag ~pid:1 42 : bool);
           ignore (Aba_runtime.Rt_treiber.pop_or tag ~pid:1 ~default:0 : int)));
    Test.make ~name:"treiber-announced.push+pop"
      (staged (fun () ->
           ignore (Aba_runtime.Rt_treiber.push ann ~pid:1 42 : bool);
           ignore (Aba_runtime.Rt_treiber.pop ann ~pid:1 : int option)));
    Test.make ~name:"treiber-announced.push+pop_or"
      (staged (fun () ->
           ignore (Aba_runtime.Rt_treiber.push ann ~pid:1 42 : bool);
           ignore (Aba_runtime.Rt_treiber.pop_or ann ~pid:1 ~default:0 : int)));
    Test.make ~name:"msqueue-announced.enq+deq_or"
      (staged (fun () ->
           ignore (Aba_runtime.Rt_ms_queue.enqueue q ~pid:1 42 : bool);
           ignore
             (Aba_runtime.Rt_ms_queue.dequeue_or q ~pid:1 ~default:0 : int)));
  ]

(* The service tier's hot-path claim mirrors [ring-hotpath]: with
   combining disabled the router adds {e zero} minor words per op over
   the bare structure — the key hash is an int mix, the depth estimate
   an owner-only strided-array bump, and a pop hands back the shard's
   own [Some] box unopened.  The flat-combined row allocates the same 2
   words (the decoded pop's [Some]): the publication protocol itself is
   raw-int CAS on immediate-tagged words. *)
let service_hotpath_tests =
  let module Svc = Aba_apps.Service in
  let bare =
    Aba_runtime.Rt_treiber.create
      ~protection:(Aba_runtime.Rt_treiber.Tag_bits 16) ~capacity:64 ~n:2 ()
  in
  let direct = Svc.Stack_service.create ~steal:true ~shards:4 ~capacity:64 ~n:2 () in
  let combined =
    Svc.Stack_service.create ~steal:true ~combining:true ~shards:4
      ~capacity:64 ~n:2 ()
  in
  (* One resident element under the benched key: both ends of every
     push+pop pair succeed and the steal path stays cold. *)
  ignore (Aba_runtime.Rt_treiber.push bare ~pid:0 1 : bool);
  ignore (Svc.Stack_service.push direct ~pid:0 ~key:7 1 : bool);
  ignore (Svc.Stack_service.push combined ~pid:0 ~key:7 1 : bool);
  [
    Test.make ~name:"treiber-tag16.push+pop bare baseline"
      (staged (fun () ->
           ignore (Aba_runtime.Rt_treiber.push bare ~pid:1 42 : bool);
           ignore (Aba_runtime.Rt_treiber.pop bare ~pid:1 : int option)));
    Test.make ~name:"service.push+pop 4-shard direct"
      (staged (fun () ->
           ignore (Svc.Stack_service.push direct ~pid:1 ~key:7 42 : bool);
           ignore (Svc.Stack_service.pop direct ~pid:1 ~key:7 : int option)));
    Test.make ~name:"service.push+pop 4-shard flat-combined"
      (staged (fun () ->
           ignore (Svc.Stack_service.push combined ~pid:1 ~key:7 42 : bool);
           ignore (Svc.Stack_service.pop combined ~pid:1 ~key:7 : int option)));
  ]

(* ----- Command line ----- *)

let usage_and_exit code =
  prerr_endline
    ("usage: bench [--part NAME]... [--smoke] [--json FILE] [--domains N]\n\
     \             [--max-domains N] [--ops N] [--crash-every N] [--slo-ns N]\n\
     \             [--arrival-ns N]\n\n\
     \  --part NAME     run this part (repeatable); without it a plain run\n\
     \                  is the full battery and --smoke runs the smoke parts\n\
     \  --smoke         CI size: 2 domains, 500 ops, reduced grids\n\
     \  --json FILE     write machine-readable results to FILE\n\
     \  --domains N     domains of the fixed-width parts (default 4)\n\
     \  --max-domains N scalability sweep upper bound (default: all cores)\n\
     \  --ops N         per-domain operations (default 10000)\n\
     \  --crash-every N recovery part crash period in rounds (default 7)\n\
     \  --slo-ns N      service SLO budget in ns (default 10000)\n\
     \  --arrival-ns N  service mean inter-arrival in ns (default 1000)\n\n\
     parts: " ^ String.concat ", " (Part.names ()));
  exit code

let parse_options () =
  let smoke = Array.mem "--smoke" Sys.argv in
  let cfg = ref (Part.config ~smoke ()) in
  let json = ref None and parts = ref [] in
  let argc = Array.length Sys.argv in
  let value i = if i + 1 >= argc then usage_and_exit 2 else Sys.argv.(i + 1) in
  let int_value i =
    match int_of_string_opt (value i) with
    | Some n when n > 0 -> n
    | Some _ | None ->
        Printf.eprintf "bench: %s needs a positive integer\n" Sys.argv.(i);
        usage_and_exit 2
  in
  let rec go i =
    let int f =
      cfg := f (int_value i);
      go (i + 2)
    in
    if i < argc then
      match Sys.argv.(i) with
      | "--smoke" -> go (i + 1)
      | "--json" ->
          json := Some (value i);
          go (i + 2)
      | "--part" -> (
          match Part.find (value i) with
          | Some p ->
              parts := p :: !parts;
              go (i + 2)
          | None ->
              Printf.eprintf "bench: unknown part %s\n" (value i);
              usage_and_exit 2)
      | "--domains" -> int (fun n -> { !cfg with domains = n })
      | "--max-domains" -> int (fun n -> { !cfg with max_domains = n })
      | "--ops" -> int (fun n -> { !cfg with ops = n })
      | "--crash-every" -> int (fun n -> { !cfg with crash_every = n })
      | "--slo-ns" -> int (fun n -> { !cfg with slo_ns = n })
      | "--arrival-ns" -> int (fun n -> { !cfg with arrival_ns = n })
      | "--help" | "-h" -> usage_and_exit 0
      | arg ->
          Printf.eprintf "bench: unknown argument %s\n" arg;
          usage_and_exit 2
  in
  go 1;
  (!json, !parts, !cfg)

let () =
  let json, selected, cfg = parse_options () in
  let full = selected = [] && not cfg.Part.smoke in
  if full then begin
    Aba_experiments.Experiments.run_space [ 3; 4; 6; 8 ];
    Aba_experiments.Experiments.run_covering [ 3; 4 ];
    Aba_experiments.Experiments.run_wraparound ();
    Aba_experiments.Experiments.run_tradeoff [ 4; 8 ];
    Aba_experiments.Experiments.run_steps [ 3; 4; 6; 8; 12; 16 ];
    Aba_experiments.Experiments.run_explore ();
    Aba_experiments.Experiments.run_ablation ();
    Aba_experiments.Experiments.run_stack ~domains:cfg.Part.domains ~ops:5_000
      ();
    ablation_fig3 ();
    print_endline "\n=== Wall-clock micro-benchmarks (Bechamel) ===";
    benchmark_report "thm3-figure4-runtime" thm3_fig4_tests;
    benchmark_report "thm2-figure3-runtime" thm2_fig3_tests;
    benchmark_report "moir-unbounded-runtime" moir_tests;
    benchmark_report "aba-registers-runtime" aba_register_tests;
    benchmark_report ~alloc:true "unified-hotpath" alloc_tests;
    benchmark_report "treiber-runtime" treiber_tests;
    benchmark_report ~alloc:true "elimination-hotpath"
      elimination_hotpath_tests;
    benchmark_report "msqueue-runtime" msqueue_tests;
    benchmark_report ~alloc:true "ring-hotpath" ring_hotpath_tests;
    benchmark_report ~alloc:true "service-hotpath" service_hotpath_tests;
    benchmark_report ~alloc:true "announced-hotpath" announced_hotpath_tests
  end;
  let parts =
    List.filter
      (fun p ->
        if selected = [] then full || p.Part.smoke else List.memq p selected)
      Part.all
  in
  let results = List.map (fun p -> (p, Part.run p cfg)) parts in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        (Aba_experiments.Json.to_string (Part.document results));
      close_out oc;
      Printf.printf "\nWrote JSON results to %s\n" path)
    json;
  match List.concat_map (fun (p, rows) -> Part.violations p rows) results with
  | [] -> ()
  | violations ->
      List.iter (Printf.eprintf "bench: invariant violated: %s\n") violations;
      exit 1
