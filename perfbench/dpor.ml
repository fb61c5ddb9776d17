(* dpor: the model checker run to a verdict on fixed configurations.

   Why this workload: sim and spec are the checker's layers and its
   schedule counts repeat exactly, while the runtime stays idle.  The
   inputs are fixed rather than drawn from the seed, because the time to
   a verdict changes by orders of magnitude across random scripts. *)

module Explore = Aba_sim.Explore
module Aba_op = Aba_spec.Aba_register_spec
module Llsc_op = Aba_spec.Llsc_spec
module Aba_check = Aba_spec.Lin_check.Make (Aba_spec.Aba_register_spec)
module Llsc_check = Aba_spec.Lin_check.Make (Aba_spec.Llsc_spec)
module W = Aba_experiments.Workloads
module I = Aba_core.Instances

(* The latency limit of one explored schedule, for [slo_frac]: ten
   times the service SLO, since a schedule is a whole replayed
   execution, not one request. *)
let slo_ns = 100_000

type timing = {
  rec_ : Rec.spans;
  traced : bool;
  gaps : Rec.samples;  (** ns between consecutive completed schedules *)
  mutable last : int;
}

(* [make] and [check] wrapped so that each completed schedule leaves one
   latency sample, and in traced runs [sim.make]/[spec.check] spans. *)
let wrap_make tm make () =
  if tm.traced then begin
    let i = Rec.enter tm.rec_ Rec.sp_make in
    let x = make () in
    Rec.leave tm.rec_ i;
    x
  end
  else make ()

let wrap_check tm check h =
  let ok =
    if tm.traced then begin
      let i = Rec.enter tm.rec_ Rec.sp_check in
      let ok = check h in
      Rec.leave tm.rec_ i;
      ok
    end
    else check h
  in
  let t = Rec.now () in
  Rec.push_sample tm.gaps (t - tm.last);
  tm.last <- t;
  ok

type config = {
  name : string;
  expect_violation : bool;
  explore : timing -> Explore.dpor_stats * bool;  (** stats, violation? *)
}

let verdict r =
  (r.Explore.stats, match r.Explore.verdict with Explore.Violation _ -> true | _ -> false)

let aba_config ~name ~expect_violation builder scripts =
  let n = Array.length scripts in
  {
    name;
    expect_violation;
    explore =
      (fun tm ->
        verdict
          (Explore.dpor
             ~make:(wrap_make tm (W.aba_explore_instance builder ~n))
             ~scripts
             ~check:(wrap_check tm (Aba_check.check_ok ~n))
             ()));
  }

let llsc_config ~name builder scripts =
  let n = Array.length scripts in
  {
    name;
    expect_violation = false;
    explore =
      (fun tm ->
        verdict
          (Explore.dpor
             ~make:(wrap_make tm (W.llsc_explore_instance builder ~n))
             ~scripts
             ~check:(wrap_check tm (Llsc_check.check_ok ~n))
             ()));
  }

let configs =
  let w x = Aba_op.DWrite x and r = Aba_op.DRead in
  [
    aba_config ~name:"fig4" ~expect_violation:false I.aba_fig4
      [| [ w 1; w 2; w 1 ]; [ r; r; r ]; [ r; w 1; r ] |];
    llsc_config ~name:"fig3" I.llsc_fig3
      [|
        [ Llsc_op.Ll; Llsc_op.Sc 1 ];
        [ Llsc_op.Ll; Llsc_op.Sc 2 ];
        [ Llsc_op.Ll; Llsc_op.Vl; Llsc_op.Sc 3 ];
      |];
    aba_config ~name:"tag2" ~expect_violation:true
      (I.aba_bounded_tag ~tag_bound:2)
      [| [ w 1; w 1; w 1 ]; [ r; r ] |];
  ]

type result = { attempted : int; failed : int; correct : bool }

(* One pass: every configuration, then the scenario suite.  Returns the
   wrong verdicts, the schedules explored and each config's stats. *)
let pass tm =
  let wrong = ref 0 and explored = ref 0 in
  let stats =
    List.map
      (fun c ->
        let sp = if tm.traced then Rec.enter tm.rec_ Rec.sp_config else -1 in
        tm.last <- Rec.now ();
        let st, violation = c.explore tm in
        Rec.leave tm.rec_ sp;
        if violation <> c.expect_violation then begin
          incr wrong;
          Printf.eprintf "dpor %s: wrong verdict\n" c.name
        end;
        explored := !explored + st.Explore.explored;
        (c.name, st))
      configs
  in
  let t0 = Rec.now () in
  let suite = Aba_experiments.Scenarios.run_suite () in
  let suite_ns = Rec.now () - t0 in
  List.iter
    (fun r ->
      explored := !explored + r.Aba_experiments.Scenarios.schedules;
      if not r.Aba_experiments.Scenarios.passed then begin
        incr wrong;
        Printf.eprintf "dpor scenario %s: wrong verdict\n"
          r.Aba_experiments.Scenarios.name
      end)
    suite;
  (!wrong, !explored, stats, List.length suite, suite_ns)

let run ~seconds ~traced ~spans_out =
  (* Set-up: one instance of each configuration, built outside the
     search, and the scenario table. *)
  Rec.timed_setup "dpor" (fun () ->
      ignore (W.aba_explore_instance I.aba_fig4 ~n:3 ());
      ignore (W.llsc_explore_instance I.llsc_fig3 ~n:3 ());
      ignore (W.aba_explore_instance (I.aba_bounded_tag ~tag_bound:2) ~n:2 ());
      ignore (Aba_experiments.Scenarios.all ()));
  (* Span room for the make/check pairs of a few passes (about 45,000
     schedules each); a longer traced run counts the rest as dropped. *)
  let tm =
    {
      rec_ = Rec.spans (if traced then 400_000 else 1);
      traced;
      (* one sample per schedule, about 45,000 a pass of ~2 s *)
      gaps = Rec.samples (45_000 * (int_of_float seconds + 3));
      last = 0;
    }
  in
  let deadline = Rec.now () + int_of_float (seconds *. 1e9) in
  let rec loop acc =
    let t0 = Rec.now () in
    let r = pass tm in
    let acc = (float_of_int (Rec.now () - t0) *. 1e-9, r) :: acc in
    if Rec.now () < deadline then loop acc else List.rev acc
  in
  let passes = loop [] in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let verdict_s = Rec.median_float (List.map fst passes) in
  let wrong = List.fold_left (fun a (_, (w, _, _, _, _)) -> a + w) 0 passes in
  let _, (_, explored, stats, suite_n, _) = List.hd passes in
  let gaps = Rec.sorted_of_list [ tm.gaps ] in
  Rec.metric "p50_us" "us" (Rec.pct gaps 0.5 /. 1e3);
  Rec.metric "p99_us" "us" (Rec.pct gaps 0.99 /. 1e3);
  Rec.metric "slo_frac" "ratio" (Rec.share_within gaps slo_ns);
  Rec.metric "ops_per_s" "1/s" (float_of_int explored /. verdict_s);
  Rec.metric "verdict_s" "s" verdict_s;
  Rec.metric "heap_mb" "MB" heap_mb;
  Rec.note "samples" (string_of_int (Array.length gaps));
  Rec.note "passes" (string_of_int (List.length passes));
  Rec.note "domains" "1";
  if traced then begin
    let total_s = List.fold_left (fun a (s, _) -> a +. s) 0.0 passes in
    let np = float_of_int (List.length passes) in
    let sum name = float_of_int (Rec.total_ns tm.rec_ name) *. 1e-9 /. np in
    let check_s = sum Rec.sp_check and make_s = sum Rec.sp_make in
    let verdict_mean = total_s /. np in
    Rec.metric "spec.check_s" "s" check_s;
    Rec.metric "sim.make_s" "s" make_s;
    Rec.metric "sim.engine_s" "s" (verdict_mean -. check_s -. make_s);
    Rec.metric "dpor.traced_verdict_s" "s" verdict_mean;
    let suite_s =
      List.fold_left (fun a (_, (_, _, _, _, ns)) -> a +. float_of_int ns) 0.0 passes
      *. 1e-9 /. np
    in
    Rec.metric "dpor.suite_s" "s" suite_s;
    List.iter
      (fun (name, (s : Explore.dpor_stats)) ->
        let m k v = Rec.metric (Printf.sprintf "sim.%s.%s" name k) "count" (float_of_int v) in
        m "explored" s.explored;
        m "actions_executed" s.actions_executed;
        m "actions_replayed" s.actions_replayed;
        Rec.metric (Printf.sprintf "sim.%s.replayed_per_schedule" name) "ratio"
          (float_of_int s.actions_replayed /. float_of_int (max 1 s.explored));
        m "rebuilds" s.rebuilds;
        m "races_detected" s.races_detected;
        m "sleep_set_prunes" s.sleep_set_prunes)
      stats;
    Rec.metric "trace.dropped_spans" "count" (float_of_int tm.rec_.Rec.dropped);
    Option.iter (fun path -> Rec.write_trace path [| tm.rec_ |] ~limit:20_000) spans_out
  end;
  let verdicts = List.length passes * (List.length configs + suite_n) in
  { attempted = verdicts; failed = wrong; correct = wrong = 0 }
