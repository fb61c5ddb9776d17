(** DPOR soundness: the reduced search must agree with the naive
    exhaustive oracle on every seeded small workload — same verdict kind,
    never more schedules — and a deliberately ABA-unsafe configuration
    must still be caught after reduction. *)

open Aba_core
module Aba_op = Aba_spec.Aba_register_spec
module Llsc_op = Aba_spec.Llsc_spec
module Explore = Aba_sim.Explore

let dpor_aba ?preemption_bound builder scripts =
  let n = Array.length scripts in
  Explore.dpor
    ~make:(Test_explore.make_aba_instance builder n)
    ~scripts
    ~check:(Test_support.Aba_check.check_ok ~n)
    ?preemption_bound ()

let dpor_llsc builder scripts =
  let n = Array.length scripts in
  Explore.dpor
    ~make:(Test_explore.make_llsc_instance builder n)
    ~scripts
    ~check:(Test_support.Llsc_check.check_ok ~n)
    ()

let verdict_kind = function
  | Explore.Ok _ -> "ok"
  | Explore.Violation _ -> "violation"
  | Explore.Budget_exhausted _ -> "budget"

(* Differential check of one workload: same verdict as the oracle and a
   schedule count that never exceeds the oracle's. *)
let differential_aba label builder scripts =
  let naive = Test_explore.explore_aba builder scripts in
  let { Explore.verdict; stats } = dpor_aba builder scripts in
  Alcotest.(check string)
    (label ^ ": verdict agrees with exhaustive")
    (verdict_kind naive) (verdict_kind verdict);
  (match naive with
  | Explore.Ok k ->
      if stats.Explore.explored > k then
        Alcotest.failf "%s: dpor explored %d > exhaustive %d" label
          stats.Explore.explored k
  | _ -> ());
  stats

let differential_llsc label builder scripts =
  let naive = Test_explore.explore_llsc builder scripts in
  let { Explore.verdict; stats } = dpor_llsc builder scripts in
  Alcotest.(check string)
    (label ^ ": verdict agrees with exhaustive")
    (verdict_kind naive) (verdict_kind verdict);
  (match naive with
  | Explore.Ok k ->
      if stats.Explore.explored > k then
        Alcotest.failf "%s: dpor explored %d > exhaustive %d" label
          stats.Explore.explored k
  | _ -> ())

let aba_differential (label, builder) =
  let test () =
    ignore
      (differential_aba (label ^ "/writer-reader") builder
         Test_explore.aba_workload_writer_reader);
    ignore
      (differential_aba (label ^ "/two-writers") builder
         Test_explore.aba_workload_two_writers);
    ignore
      (differential_aba (label ^ "/all-roles") builder
         Test_explore.aba_workload_all_roles)
  in
  Alcotest.test_case (label ^ " dpor = exhaustive") `Quick test

let llsc_differential (label, builder) =
  let test () =
    differential_llsc (label ^ "/contention") builder
      Test_explore.llsc_workload_contention;
    differential_llsc (label ^ "/three") builder
      Test_explore.llsc_workload_three
  in
  Alcotest.test_case (label ^ " dpor = exhaustive") `Quick test

(* The acceptance workload: a seeded 3-process Fig. 4 run where the
   reduction must bite — same Ok verdict as the oracle, strictly fewer
   schedules than the multinomial bound. *)
let reduction_bites () =
  let stats =
    differential_aba "fig4/3proc" Instances.aba_fig4
      Test_explore.aba_workload_two_writers
  in
  match stats.Explore.schedule_bound with
  | None -> Alcotest.fail "3-process workload overflowed the bound"
  | Some bound ->
      if stats.Explore.explored >= bound then
        Alcotest.failf "no reduction: explored %d >= bound %d"
          stats.Explore.explored bound

(* Mutation test: the tag-wraparound flaw (2-bit... here 2-value tag) must
   survive the reduction — a checker that only visits representative
   schedules still visits one violating trace. *)
let mutation_still_caught () =
  let builder = Instances.aba_bounded_tag ~tag_bound:2 in
  let scripts =
    [| [ Aba_op.DWrite 1; Aba_op.DWrite 1; Aba_op.DWrite 1 ];
       [ Aba_op.DRead; Aba_op.DRead ] |]
  in
  match dpor_aba builder scripts with
  | { Explore.verdict = Explore.Violation (_, h); _ } ->
      Alcotest.(check bool)
        "violating history rejected by checker" false
        (Test_support.Aba_check.check_ok ~n:2 h)
  | { Explore.verdict = Explore.Ok k; _ } ->
      Alcotest.failf "ABA-unsafe tag survived %d reduced schedules" k
  | { Explore.verdict = Explore.Budget_exhausted _; _ } ->
      Alcotest.fail "budget exhausted"

(* A preemption bound of zero leaves only the non-preemptive schedules; the
   search stays sound for them and visits no more than the full search. *)
let preemption_bound () =
  let full = dpor_aba Instances.aba_fig4 Test_explore.aba_workload_all_roles in
  let bounded =
    dpor_aba ~preemption_bound:0 Instances.aba_fig4
      Test_explore.aba_workload_all_roles
  in
  (match bounded.Explore.verdict with
  | Explore.Ok k when k >= 1 -> ()
  | v -> Alcotest.failf "bounded search: unexpected verdict %s" (verdict_kind v));
  if
    bounded.Explore.stats.Explore.explored
    > full.Explore.stats.Explore.explored
  then Alcotest.fail "bounded search explored more than unbounded";
  if full.Explore.stats.Explore.preemption_prunes <> 0 then
    Alcotest.fail "unbounded search reported preemption prunes"

(* Incremental re-execution: rewinding to a prefix and replaying a
   different suffix must reproduce exactly what a fresh instance yields,
   and the replay cost must be the prefix, not the whole path. *)
let incremental_replay () =
  let n = 2 in
  let scripts = Test_explore.aba_workload_all_roles in
  let make () =
    (Test_explore.make_aba_instance Instances.aba_fig4 n ()).Explore.driver
  in
  let u = Aba_sim.Driver.Incremental.create ~make ~scripts () in
  let run_all u schedule =
    List.iter
      (fun p -> ignore (Aba_sim.Driver.Incremental.advance u p))
      schedule;
    let rec drain () =
      match Aba_sim.Driver.Incremental.enabled u with
      | [] -> ()
      | p :: _ ->
          ignore (Aba_sim.Driver.Incremental.advance u p);
          drain ()
    in
    drain ();
    Aba_sim.Driver.history (Aba_sim.Driver.Incremental.driver u)
  in
  let h1 = run_all u [ 0; 0; 1; 1 ] in
  Aba_sim.Driver.Incremental.rewind u ~depth:2;
  Alcotest.(check int) "depth after rewind" 2
    (Aba_sim.Driver.Incremental.depth u);
  Alcotest.(check (list int))
    "path after rewind" [ 0; 0 ]
    (Aba_sim.Driver.Incremental.path u);
  let h2 = run_all u [ 1; 1; 0; 0 ] in
  let stats = Aba_sim.Driver.Incremental.stats u in
  Alcotest.(check int) "one rebuild" 1 stats.Aba_sim.Driver.Incremental.rebuilds;
  Alcotest.(check int)
    "replayed exactly the common prefix" 2
    stats.Aba_sim.Driver.Incremental.actions_replayed;
  (* The same suffix from a fresh instance gives the same history. *)
  let u' = Aba_sim.Driver.Incremental.create ~make ~scripts () in
  let h2' = run_all u' [ 0; 0; 1; 1; 0; 0 ] in
  ignore h2';
  (* Both complete runs linearize; the rewound one is a real history. *)
  Alcotest.(check bool)
    "history before rewind linearizes" true
    (Test_support.Aba_check.check_ok ~n h1);
  Alcotest.(check bool)
    "history after rewind linearizes" true
    (Test_support.Aba_check.check_ok ~n h2)

(* The search itself is pinned: the three model-checking configurations
   timed by the repository benchmark must explore exactly these schedules
   with exactly this re-execution and reduction work.  Any change to the
   exploration order, the race detection, the sleep sets or the replay
   shows up here, not only as a speed change. *)
let pinned_stats label ~expect_violation
    (explored, executed, replayed, rebuilds, races, prunes)
    (r : (_, _) Explore.dpor_result) =
  let s = r.Explore.stats in
  let check what want got =
    Alcotest.(check int) (label ^ " " ^ what) want got
  in
  Alcotest.(check string)
    (label ^ " verdict")
    (if expect_violation then "violation" else "ok")
    (verdict_kind r.Explore.verdict);
  check "explored" explored s.Explore.explored;
  check "actions_executed" executed s.Explore.actions_executed;
  check "actions_replayed" replayed s.Explore.actions_replayed;
  check "rebuilds" rebuilds s.Explore.rebuilds;
  check "races_detected" races s.Explore.races_detected;
  check "sleep_set_prunes" prunes s.Explore.sleep_set_prunes

let search_is_pinned () =
  let w x = Aba_op.DWrite x and r = Aba_op.DRead in
  pinned_stats "fig4" ~expect_violation:false
    (43145, 291391, 933395, 43846, 139806, 702)
    (dpor_aba Instances.aba_fig4
       [| [ w 1; w 2; w 1 ]; [ r; r; r ]; [ r; w 1; r ] |]);
  pinned_stats "fig3" ~expect_violation:false
    (581, 2560, 6218, 580, 1327, 0)
    (dpor_llsc Instances.llsc_fig3
       [|
         [ Llsc_op.Ll; Llsc_op.Sc 1 ];
         [ Llsc_op.Ll; Llsc_op.Sc 2 ];
         [ Llsc_op.Ll; Llsc_op.Vl; Llsc_op.Sc 3 ];
       |]);
  pinned_stats "tag2" ~expect_violation:true (5, 17, 8, 4, 9, 0)
    (dpor_aba
       (Instances.aba_bounded_tag ~tag_bound:2)
       [| [ w 1; w 1; w 1 ]; [ r; r ] |])

(* Satellite 1: the multinomial either computes exactly or says so. *)
let count_schedules_boundary () =
  Alcotest.(check (option int))
    "C(4,2) exact" (Some 6)
    (Explore.count_schedules_opt ~n_actions:[| 2; 2 |]);
  Alcotest.(check (option int))
    "12!/(2!8!2!) exact" (Some 2970)
    (Explore.count_schedules_opt ~n_actions:[| 2; 8; 2 |]);
  (* C(62,31) = 916312070471295267 fits in 63-bit ints... *)
  Alcotest.(check bool)
    "C(62,31) computes" true
    (Explore.count_schedules_opt ~n_actions:[| 31; 31 |] <> None);
  (* ...while C(70,35) ~ 1.1e20 does not: option is [None] and the plain
     version saturates instead of returning a wrapped-around value. *)
  Alcotest.(check (option int))
    "C(70,35) overflows to None" None
    (Explore.count_schedules_opt ~n_actions:[| 35; 35 |]);
  Alcotest.(check int)
    "saturating version returns max_int" max_int
    (Explore.count_schedules ~n_actions:[| 35; 35 |]);
  Alcotest.(check int)
    "saturation is monotone" max_int
    (Explore.count_schedules ~n_actions:[| 40; 40; 40 |])

let suite =
  List.concat
    [
      List.map aba_differential (Instances.all_aba ());
      List.map llsc_differential (Instances.all_llsc ());
      [
        Alcotest.test_case "fig4 3-process reduction bites" `Quick
          reduction_bites;
        Alcotest.test_case "ABA-unsafe tag caught after reduction" `Quick
          mutation_still_caught;
        Alcotest.test_case "preemption bound" `Quick preemption_bound;
        Alcotest.test_case "incremental replay equivalence" `Quick
          incremental_replay;
        Alcotest.test_case "count_schedules overflow boundary" `Quick
          count_schedules_boundary;
        Alcotest.test_case "benchmark searches are pinned" `Quick
          search_is_pinned;
      ];
    ]
