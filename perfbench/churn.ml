(* churn: a closed loop with one client domain through each structure's
   public API in turn.

   Why this workload: the core, runtime, reclaim, queue and primitives
   layers do all the work and the service router is never called, so it
   is the bypass for any apps change.  One client, because two-domain
   closed loops are bimodal on small machines; svc-open covers
   contention.  Every structure is built during set-up at the capacity
   stated below, so [setup_s] includes [Rt_mem]'s object registry (the
   ring, the Figure 3/4 objects and the detectable arena register every
   cell they create). *)

module T = Aba_runtime.Rt_treiber
module Q = Aba_runtime.Rt_ms_queue
module H = Aba_runtime.Harness

let ring_capacity = 2048
let dstack_ops = 500
let treiber_capacity = 1024
let queue_capacity = 1024
let llsc_n = 8
let fig4_n = 8

(* Every 32nd call of each kind is timed on its own (two clock reads)
   for the latency percentiles; the rest run back to back. *)
let sample_mask = 31

(* The fixed operation mix: rounds per second of run, per phase.  The
   weights give each phase a comparable share of the run on today's code
   (about a tenth each, the crash-churned stack less), so [ops_per_s] moves
   with every layer rather than with the slowest one alone. *)
let rounds_per_s = function
  | "fig3" -> 1_200_000
  | "fig4" -> 300_000
  | "treiber_tag16" | "treiber_ann12" -> 750_000
  | "treiber_llsc" -> 375_000
  | "treiber_hazard" -> 40_000
  | "treiber_epoch" -> 300_000
  | "msq_ann12" -> 600_000
  | "ring" -> 900_000
  | "prim.atomic_cas" -> 1_000_000
  | p -> invalid_arg ("no weight for churn phase " ^ p)

type phase = {
  name : string;
  rounds : int;
  run : lat:Rec.samples -> int;  (** rounds whose results were wrong *)
}

(* [first i] and [second i] are one round's two public calls; each
   returns whether its result was the expected one. *)
let pair_loop ~rounds ~lat ~first ~second =
  let bad = ref 0 in
  for i = 0 to rounds - 1 do
    let m = i land sample_mask in
    if m = 0 then begin
      let t0 = Rec.now () in
      let a = first i in
      Rec.push_sample lat (Rec.now () - t0);
      if not (a && second i) then incr bad
    end
    else if m = 16 then begin
      let a = first i in
      let t0 = Rec.now () in
      let b = second i in
      Rec.push_sample lat (Rec.now () - t0);
      if not (a && b) then incr bad
    end
    else if not (first i && second i) then incr bad
  done;
  !bad

let rounds_of ~seconds name =
  int_of_float (seconds *. float_of_int (rounds_per_s name))

let values ~seed =
  let rng = Random.State.make [| seed; 0xc4 |] in
  let b = Rec.buf 65536 in
  for i = 0 to 65535 do
    b.{i} <- Random.State.int rng ((1 lsl 30) - 1)
  done;
  b

let v (vals : Rec.buf) i = Bigarray.Array1.unsafe_get vals (i land 65535)

let treiber_phase vals ~name ~seconds protection =
  let rounds = rounds_of ~seconds name in
  let st =
    Rec.timed_setup name (fun () ->
        T.create ~protection ~capacity:treiber_capacity ~n:1 ())
  in
  let phase =
    {
      name;
      rounds;
      run =
        (fun ~lat ->
          pair_loop ~rounds ~lat
            ~first:(fun i -> T.push st ~pid:0 (v vals i))
            ~second:(fun i -> T.pop st ~pid:0 = Some (v vals i)));
    }
  in
  (phase, st)

type built = {
  phases : phase list;
  hazard : T.t;
  epoch : T.t;
  dstack_crashes : int ref;
  recover_ns : int ref;
}

let build ~seed ~seconds =
  let vals = values ~seed in
  let rounds_of = rounds_of ~seconds in
  let fig3 =
    let o =
      Rec.timed_setup "fig3" (fun () ->
          Aba_runtime.Rt_llsc.Packed_fig3.create ~n:llsc_n ~init:0 ())
    in
    let last = ref 0 in
    let rounds = rounds_of "fig3" in
    {
      name = "fig3";
      rounds;
      run =
        (fun ~lat ->
          pair_loop ~rounds ~lat
            ~first:(fun _ -> Aba_runtime.Rt_llsc.Packed_fig3.ll o ~pid:0 = !last)
            ~second:(fun i ->
              let x = v vals i in
              last := x;
              Aba_runtime.Rt_llsc.Packed_fig3.sc o ~pid:0 x));
    }
  in
  let fig4 =
    let o =
      Rec.timed_setup "fig4" (fun () -> Aba_runtime.Rt_aba.Fig4.create ~n:fig4_n 0)
    in
    let rounds = rounds_of "fig4" in
    {
      name = "fig4";
      rounds;
      run =
        (fun ~lat ->
          pair_loop ~rounds ~lat
            ~first:(fun i ->
              Aba_runtime.Rt_aba.Fig4.dwrite o ~pid:0 (v vals i);
              true)
            ~second:(fun i ->
              Aba_runtime.Rt_aba.Fig4.dread o ~pid:0 = (v vals i, true)));
    }
  in
  let tag16, _ = treiber_phase vals ~name:"treiber_tag16" ~seconds (T.Tag_bits 16) in
  let ann12, _ = treiber_phase vals ~name:"treiber_ann12" ~seconds (T.Announced 12) in
  let llsc, _ = treiber_phase vals ~name:"treiber_llsc" ~seconds T.Llsc in
  let hazard_p, hazard =
    treiber_phase vals ~name:"treiber_hazard" ~seconds
      (T.Reclaimed Aba_runtime.Rt_reclaim.Hazard)
  in
  let epoch_p, epoch =
    treiber_phase vals ~name:"treiber_epoch" ~seconds
      (T.Reclaimed Aba_runtime.Rt_reclaim.Epoch)
  in
  let msq =
    let q =
      Rec.timed_setup "msq_ann12" (fun () ->
          Q.create ~protection:(Q.Announced 12) ~capacity:queue_capacity ~n:1 ())
    in
    let rounds = rounds_of "msq_ann12" in
    {
      name = "msq_ann12";
      rounds;
      run =
        (fun ~lat ->
          pair_loop ~rounds ~lat
            ~first:(fun i -> Q.enqueue q ~pid:0 (v vals i))
            ~second:(fun i -> Q.dequeue q ~pid:0 = Some (v vals i)));
    }
  in
  let ring =
    let r =
      Rec.timed_setup "ring" (fun () ->
          Aba_queue.Rt_ring.create ~capacity:ring_capacity ~n:1 ())
    in
    let rounds = rounds_of "ring" in
    {
      name = "ring";
      rounds;
      run =
        (fun ~lat ->
          pair_loop ~rounds ~lat
            ~first:(fun i -> Aba_queue.Rt_ring.try_enqueue r ~pid:0 (v vals i))
            ~second:(fun i ->
              Aba_queue.Rt_ring.dequeue_or r ~pid:0 ~default:(-1) = v vals i));
    }
  in
  let dstack_crashes = ref 0 and recover_ns = ref 0 in
  let dstack =
    let m = Rec.timed_setup "dstack" (fun () -> Aba_primitives.Rt_mem.make ~n:1 ()) in
    let module M = (val m : Aba_primitives.Mem_intf.S) in
    let module D = Aba_core.Detectable.Make (M) in
    let fuse = H.Fuse.create ~n:1 in
    let st =
      Rec.timed_setup "dstack" (fun () ->
          D.Stack.create ~protection:Aba_core.Detectable.Announced ~tag_bits:8
            ~on_step:(H.Fuse.on_step fuse) ~name:"dstk" ~n:1
            ~capacity:((3 * dstack_ops) + 8) ())
    in
    let recover ~pid =
      let t0 = Rec.now () in
      let r =
        match D.Stack.recover st ~pid with
        | Aba_core.Detectable.R_none ->
            { H.completed = false; r_pushed = []; r_popped = [] }
        | Aba_core.Detectable.R_pushed x ->
            { H.completed = true; r_pushed = [ x ]; r_popped = [] }
        | Aba_core.Detectable.R_popped (Some x) ->
            { H.completed = true; r_pushed = []; r_popped = [ x ] }
        | Aba_core.Detectable.R_popped None ->
            { H.completed = true; r_pushed = []; r_popped = [] }
      in
      recover_ns := !recover_ns + (Rec.now () - t0);
      r
    in
    let plan =
      { H.fuse; crash_every = 7; fuse_steps = H.default_fuse_steps; recover }
    in
    {
      name = "dstack";
      rounds = dstack_ops;
      run =
        (fun ~lat ->
          let calls = ref 0 in
          let timed f =
            incr calls;
            if !calls land sample_mask = 0 then begin
              let t0 = Rec.now () in
              let x = f () in
              Rec.push_sample lat (Rec.now () - t0);
              x
            end
            else f ()
          in
          let report =
            H.churn ~mix:H.Paired ~crashes:plan ~n:1 ~ops:dstack_ops
              ~push:(fun ~pid x ->
                timed (fun () ->
                    D.Stack.push st ~pid x;
                    true))
              ~pop:(fun ~pid -> timed (fun () -> D.Stack.pop st ~pid))
              ()
          in
          dstack_crashes := report.H.crashed;
          match report.H.outcome with
          | Ok () -> 0
          | Error e ->
              prerr_endline ("churn dstack audit failed: " ^ e);
              1);
    }
  in
  {
    phases =
      [ fig3; fig4; tag16; ann12; llsc; hazard_p; epoch_p; msq; ring; dstack ];
    hazard;
    epoch;
    dstack_crashes;
    recover_ns;
  }

(* Rung 0 of the layer ladder: a bare [Atomic.compare_and_set] loop owned
   by the benchmark (traced runs only; not part of the mix). *)
let atomic_cas_phase ~seconds =
  let rounds = rounds_of ~seconds "prim.atomic_cas" in
  let a = Atomic.make 0 in
  {
    name = "prim.atomic_cas";
    rounds;
    run =
      (fun ~lat:_ ->
        for i = 0 to (2 * rounds) - 1 do
          ignore (Atomic.compare_and_set a i (i + 1) : bool)
        done;
        if Atomic.get a = 2 * rounds then 0 else 1);
  }

type result = { attempted : int; failed : int; correct : bool }

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let run ~seed ~seconds ~traced ~spans_out =
  let b = build ~seed ~seconds in
  let phases =
    if traced then atomic_cas_phase ~seconds :: b.phases else b.phases
  in
  let lat =
    Rec.samples
      (List.fold_left (fun a p -> a + (2 * p.rounds / sample_mask) + 2) 0 phases)
  in
  let rec_ = Rec.spans (List.length phases) in
  let t_start = Rec.now () in
  let timings =
    List.map
      (fun p ->
        let w0 = minor_words () in
        let sp = if traced then Rec.enter rec_ Rec.sp_phase else -1 in
        let t0 = Rec.now () in
        let bad = p.run ~lat in
        let dt = Rec.now () - t0 in
        Rec.leave rec_ sp;
        let words = minor_words () -. w0 in
        if bad > 0 then
          Printf.eprintf "churn phase %s: %d wrong results\n" p.name bad;
        (p, dt, words, bad))
      phases
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let verdict_s = float_of_int (Rec.now () - t_start) *. 1e-9 in
  let mix = List.filter (fun (p, _, _, _) -> p.name <> "prim.atomic_cas") timings in
  let mix_ns = List.fold_left (fun a (_, dt, _, _) -> a + dt) 0 mix in
  let mix_ops = List.fold_left (fun a (p, _, _, _) -> a + (2 * p.rounds)) 0 mix in
  let lat = Rec.sorted_of_list [ lat ] in
  Rec.metric "p50_us" "us" (Rec.pct lat 0.5 /. 1e3);
  Rec.metric "p99_us" "us" (Rec.pct lat 0.99 /. 1e3);
  Rec.metric "slo_frac" "ratio" (Rec.share_within lat Svc_open.slo_ns);
  Rec.metric "ops_per_s" "1/s" (float_of_int mix_ops *. 1e9 /. float_of_int mix_ns);
  Rec.metric "verdict_s" "s" verdict_s;
  Rec.metric "heap_mb" "MB" heap_mb;
  Rec.note "samples" (string_of_int (Array.length lat));
  Rec.note "domains" "1";
  if traced then begin
    List.iter
      (fun (p, dt, words, _) ->
        let ops = float_of_int (2 * p.rounds) in
        let key = if p.name = "prim.atomic_cas" then p.name else "churn." ^ p.name in
        Rec.metric (key ^ ".ns_per_op") "ns" (float_of_int dt /. ops);
        Rec.metric (key ^ ".words_per_op") "words" (words /. ops);
        if key <> p.name then begin
          Rec.metric (key ^ ".time_share") "ratio"
            (float_of_int dt /. float_of_int mix_ns);
          Rec.metric (key ^ ".setup_s") "s"
            (List.fold_left
               (fun a (ph, s) -> if ph = p.name then a +. s else a)
               0.0 !Rec.setup_by_phase)
        end)
      timings;
    let limbo t =
      match T.reclaim_stats t with
      | Some s -> float_of_int s.Aba_runtime.Rt_reclaim.peak_in_limbo
      | None -> 0.0
    in
    Rec.metric "reclaim.hazard.peak_limbo" "count" (limbo b.hazard);
    Rec.metric "reclaim.epoch.peak_limbo" "count" (limbo b.epoch);
    Rec.metric "core.dstack.crashes" "count" (float_of_int !(b.dstack_crashes));
    Rec.metric "core.dstack.recover_ns" "ns"
      (if !(b.dstack_crashes) = 0 then 0.0
       else float_of_int !(b.recover_ns) /. float_of_int !(b.dstack_crashes));
    Option.iter (fun path -> Rec.write_trace path [| rec_ |] ~limit:20_000) spans_out
  end;
  let failed = List.fold_left (fun a (_, _, _, bad) -> a + bad) 0 mix in
  { attempted = mix_ops; failed; correct = failed = 0 }
