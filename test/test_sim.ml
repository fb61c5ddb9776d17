(** Unit tests for the simulator itself: stepping, poisedness, quiescence,
    register configurations, solo runs, tracing, and the step semantics of
    each base-object kind. *)

open Aba_primitives

let make_mem () =
  let sim = Aba_sim.Sim.create ~n:3 in
  let m = Aba_sim.Sim_mem.make sim in
  (sim, m)

let basic_register_stepping () =
  let sim, m = make_mem () in
  let module M = (val m) in
  let r = M.make_register ~name:"r" ~show:string_of_int 0 in
  (* A write is exactly one step. *)
  let w = Aba_sim.Sim.invoke sim 0 (fun () -> M.write r 42) in
  Alcotest.(check bool) "not yet done" true (Aba_sim.Sim.result w = None);
  Alcotest.(check bool) "poised at a write" true
    (match Aba_sim.Sim.poised sim 0 with
    | Some (Aba_sim.Step.Write _) -> true
    | _ -> false);
  Aba_sim.Sim.step sim 0;
  Alcotest.(check bool) "done after one step" true
    (Aba_sim.Sim.result w = Some ());
  Alcotest.(check int) "step counted" 1 (Aba_sim.Sim.steps_of w);
  (* A read observes it. *)
  let rd = Aba_sim.Sim.invoke sim 1 (fun () -> M.read r) in
  Aba_sim.Sim.step sim 1;
  Alcotest.(check (option int)) "read value" (Some 42)
    (Aba_sim.Sim.result rd)

let interleaving_is_real () =
  (* Two increments interleaved read-read-write-write lose one update:
     the simulator really interleaves at step granularity. *)
  let sim, m = make_mem () in
  let module M = (val m) in
  let r = M.make_register ~name:"r" ~show:string_of_int 0 in
  let incr () = M.write r (M.read r + 1) in
  ignore (Aba_sim.Sim.invoke sim 0 incr);
  ignore (Aba_sim.Sim.invoke sim 1 incr);
  Aba_sim.Sim.run_schedule sim [ 0; 1; 0; 1 ];
  let rd = Aba_sim.Sim.invoke sim 2 (fun () -> M.read r) in
  Aba_sim.Sim.step sim 2;
  Alcotest.(check (option int)) "lost update" (Some 1)
    (Aba_sim.Sim.result rd)

let cas_semantics () =
  let sim, m = make_mem () in
  let module M = (val m) in
  let c = M.make_cas ~name:"c" ~show:string_of_int 5 in
  let do_op p f =
    let pr = Aba_sim.Sim.invoke sim p f in
    Aba_sim.Sim.run_solo sim p;
    Option.get (Aba_sim.Sim.result pr)
  in
  Alcotest.(check bool) "cas succeeds on match" true
    (do_op 0 (fun () -> M.cas c ~expect:5 ~update:6));
  Alcotest.(check bool) "cas fails on mismatch" false
    (do_op 1 (fun () -> M.cas c ~expect:5 ~update:7));
  Alcotest.(check int) "value is the successful update" 6
    (do_op 2 (fun () -> M.cas_read c));
  (* ABA at the base-object level is possible by design. *)
  Alcotest.(check bool) "back to 5" true
    (do_op 0 (fun () -> M.cas c ~expect:6 ~update:5));
  Alcotest.(check bool) "stale expect now matches again" true
    (do_op 1 (fun () -> M.cas c ~expect:5 ~update:8))

let poised_would_succeed () =
  (* [Step.would_succeed] is what P-successful schedules (Lemma 2/3) are
     built from: CASes succeed only when the expected value is current;
     unconditional steps (writes, reads) are [None], not [Some false]. *)
  let sim, m = make_mem () in
  let module M = (val m) in
  let c = M.make_cas ~writable:true ~name:"c" ~show:string_of_int 5 in
  ignore (Aba_sim.Sim.invoke sim 0 (fun () -> M.cas c ~expect:5 ~update:6));
  ignore (Aba_sim.Sim.invoke sim 1 (fun () -> M.cas c ~expect:9 ~update:7));
  ignore (Aba_sim.Sim.invoke sim 2 (fun () -> M.cas_write c 8));
  let would p =
    match Aba_sim.Sim.poised sim p with
    | Some s -> Aba_sim.Step.would_succeed ~pid:p s
    | None -> Alcotest.fail "expected a poised step"
  in
  let opt_bool = Alcotest.(option bool) in
  Alcotest.check opt_bool "matching CAS would succeed" (Some true) (would 0);
  Alcotest.check opt_bool "mismatched CAS would fail" (Some false) (would 1);
  Alcotest.check opt_bool "a write is unconditional" None (would 2);
  (* Executing p2's write changes the picture for p0. *)
  Aba_sim.Sim.step sim 2;
  Alcotest.check opt_bool "CAS invalidated by the write" (Some false) (would 0)

let sc_would_succeed () =
  (* The other conditional step: a poised SC reports link validity for the
     process that will execute it — per-pid, unlike a CAS. *)
  let sim, m = make_mem () in
  let module M = (val m) in
  let o = M.make_llsc ~name:"o" ~show:string_of_int 0 in
  let run p f =
    let pr = Aba_sim.Sim.invoke sim p f in
    Aba_sim.Sim.run_solo sim p;
    Option.get (Aba_sim.Sim.result pr)
  in
  ignore (run 0 (fun () -> M.ll o ~pid:0));
  ignore (run 1 (fun () -> M.ll o ~pid:1));
  ignore (Aba_sim.Sim.invoke sim 0 (fun () -> M.sc o ~pid:0 1));
  ignore (Aba_sim.Sim.invoke sim 1 (fun () -> M.sc o ~pid:1 2));
  let would p =
    match Aba_sim.Sim.poised sim p with
    | Some s -> Aba_sim.Step.would_succeed ~pid:p s
    | None -> Alcotest.fail "expected a poised step"
  in
  let opt_bool = Alcotest.(option bool) in
  Alcotest.check opt_bool "p0's linked SC would succeed" (Some true) (would 0);
  Alcotest.check opt_bool "p1's linked SC would succeed" (Some true) (would 1);
  (* p0's SC lands first and invalidates p1's link. *)
  Aba_sim.Sim.step sim 0;
  Alcotest.check opt_bool "p1's SC is now doomed" (Some false) (would 1)

let footprints_and_conflicts () =
  let sim, m = make_mem () in
  let module M = (val m) in
  let r = M.make_register ~name:"r" ~show:string_of_int 0 in
  let c = M.make_cas ~name:"c" ~show:string_of_int 0 in
  let o = M.make_llsc ~name:"o" ~show:string_of_int 0 in
  let poise p f =
    ignore (Aba_sim.Sim.invoke sim p f);
    match Aba_sim.Sim.poised sim p with
    | Some s -> Aba_sim.Step.footprint s
    | None -> Alcotest.fail "expected a poised step"
  in
  let read_r = poise 0 (fun () -> M.read r) in
  let write_r = poise 1 (fun () -> M.write r 1) in
  let cas_c = poise 2 (fun () -> M.cas c ~expect:0 ~update:1) in
  Aba_sim.Sim.step sim 2;
  let ll_o = poise 2 (fun () -> M.ll o ~pid:2) in
  let check = Alcotest.(check bool) in
  let conflicts = Aba_sim.Step.conflicts in
  check "read/write on the same cell conflict" true (conflicts read_r write_r);
  check "conflict is symmetric" true (conflicts write_r read_r);
  check "read/read never conflicts" false (conflicts read_r read_r);
  check "different cells never conflict" false (conflicts write_r cas_c);
  check "a failed CAS still counts as mutating" true (conflicts cas_c cas_c);
  check "LL is a load: two LLs commute" false (conflicts ll_o ll_o);
  check "write and CAS on different cells commute" false
    (conflicts write_r cas_c)

let writable_cas () =
  let sim, m = make_mem () in
  let module M = (val m) in
  let c = M.make_cas ~writable:true ~name:"wc" ~show:string_of_int 0 in
  let pr = Aba_sim.Sim.invoke sim 0 (fun () -> M.cas_write c 9) in
  Aba_sim.Sim.run_solo sim 0;
  Alcotest.(check bool) "write applied" true
    (Aba_sim.Sim.result pr = Some ());
  let c2 = M.make_cas ~name:"nc" ~show:string_of_int 0 in
  let pr2 = Aba_sim.Sim.invoke sim 1 (fun () -> M.cas_write c2 9) in
  Alcotest.check_raises "write on plain CAS object rejected"
    (Aba_sim.Sim.Process_crashed
       (1, Invalid_argument "Step.execute: Write on CAS nc"))
    (fun () -> Aba_sim.Sim.run_solo sim 1);
  ignore pr2

let llsc_base_object () =
  let sim, m = make_mem () in
  let module M = (val m) in
  let l = M.make_llsc ~name:"l" ~show:string_of_int 0 in
  let do_op p f =
    let pr = Aba_sim.Sim.invoke sim p f in
    Aba_sim.Sim.run_solo sim p;
    Option.get (Aba_sim.Sim.result pr)
  in
  Alcotest.(check int) "ll initial" 0 (do_op 0 (fun () -> M.ll l ~pid:0));
  Alcotest.(check bool) "vl before any sc (other pid)" true
    (do_op 1 (fun () -> M.vl l ~pid:1));
  Alcotest.(check bool) "sc succeeds" true
    (do_op 0 (fun () -> M.sc l ~pid:0 3));
  Alcotest.(check bool) "other pid's vl now fails" false
    (do_op 1 (fun () -> M.vl l ~pid:1));
  Alcotest.(check bool) "sc without fresh ll fails" false
    (do_op 0 (fun () -> M.sc l ~pid:0 4))

let boundedness_enforced () =
  let sim, m = make_mem () in
  let module M = (val m) in
  let r =
    M.make_register ~bound:(Bounded.int_range ~lo:0 ~hi:3) ~name:"b"
      ~show:string_of_int 0
  in
  ignore (Aba_sim.Sim.invoke sim 0 (fun () -> M.write r 2));
  Aba_sim.Sim.run_solo sim 0;
  ignore (Aba_sim.Sim.invoke sim 0 (fun () -> M.write r 17));
  Alcotest.(check bool) "out-of-domain write crashes the process" true
    (match Aba_sim.Sim.run_solo sim 0 with
    | () -> false
    | exception Aba_sim.Sim.Process_crashed (0, Invalid_argument _) -> true)

let quiescence_and_config () =
  let sim, m = make_mem () in
  let module M = (val m) in
  let r1 = M.make_register ~name:"r1" ~show:string_of_int 1 in
  let _r2 = M.make_register ~name:"r2" ~show:string_of_int 2 in
  Alcotest.(check bool) "initially quiescent" true (Aba_sim.Sim.quiescent sim);
  Alcotest.(check (list string)) "reg config" [ "1"; "2" ]
    (Aba_sim.Sim.reg_config sim);
  ignore (Aba_sim.Sim.invoke sim 1 (fun () -> M.write r1 5));
  Alcotest.(check bool) "not quiescent with pending op" false
    (Aba_sim.Sim.quiescent sim);
  Aba_sim.Sim.run_solo sim 1;
  Alcotest.(check bool) "quiescent again" true (Aba_sim.Sim.quiescent sim);
  Alcotest.(check (list string)) "updated config" [ "5"; "2" ]
    (Aba_sim.Sim.reg_config sim);
  Alcotest.(check int) "registers counted" 2
    (List.length (Aba_sim.Sim.registers sim))

let signatures_distinguish () =
  let sim, m = make_mem () in
  let module M = (val m) in
  let r = M.make_register ~name:"r" ~show:string_of_int 0 in
  let s0 = Aba_sim.Sim.signature sim in
  ignore (Aba_sim.Sim.invoke sim 0 (fun () -> M.write r 1));
  let s1 = Aba_sim.Sim.signature sim in
  Alcotest.(check bool) "poised step changes the signature" true (s0 <> s1);
  Aba_sim.Sim.run_solo sim 0;
  let s2 = Aba_sim.Sim.signature sim in
  Alcotest.(check bool) "register value changes the signature" true
    (s1 <> s2 && s0 <> s2)

let tracing () =
  let sim, m = make_mem () in
  let module M = (val m) in
  let r = M.make_register ~name:"r" ~show:string_of_int 0 in
  Aba_sim.Sim.set_recording sim true;
  ignore (Aba_sim.Sim.invoke sim 0 (fun () -> M.write r (M.read r + 1)));
  Aba_sim.Sim.run_solo sim 0;
  let t = Aba_sim.Sim.trace sim in
  Alcotest.(check int) "two steps traced" 2 (List.length t);
  Alcotest.(check (list string)) "descriptions" [ "read r"; "write r := 1" ]
    (List.map (fun (e : Aba_sim.Sim.trace_entry) -> e.Aba_sim.Sim.descr) t);
  Aba_sim.Sim.clear_trace sim;
  Alcotest.(check int) "cleared" 0 (List.length (Aba_sim.Sim.trace sim))

let zero_step_calls () =
  let sim, _ = make_mem () in
  let p = Aba_sim.Sim.invoke sim 0 (fun () -> 1 + 1) in
  Alcotest.(check (option int)) "local-only call completes at invoke"
    (Some 2) (Aba_sim.Sim.result p);
  Alcotest.(check int) "zero steps" 0 (Aba_sim.Sim.steps_of p)

let driver_history_shape () =
  let sim, m = make_mem () in
  let module M = (val m) in
  let r = M.make_register ~name:"r" ~show:string_of_int 0 in
  let driver =
    Aba_sim.Driver.create ~sim ~apply:(fun _ op () ->
        match op with
        | `Read -> `Got (M.read r)
        | `Write v ->
            M.write r v;
            `Done)
  in
  Aba_sim.Driver.invoke driver 0 (`Write 3);
  Aba_sim.Driver.invoke driver 1 `Read;
  Aba_sim.Driver.step driver 1;
  (* reader finished before writer took any step: must read 0 *)
  Alcotest.(check bool) "reader result" true
    (Aba_sim.Driver.last_result driver 1 = Some (`Got 0));
  Aba_sim.Driver.finish driver 0;
  let h = Aba_sim.Driver.history driver in
  Alcotest.(check int) "four events" 4 (List.length h);
  Alcotest.(check bool) "well-formed" true (Event.well_formed h)

(* Resident set size in kB, where /proc provides it. *)
let rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match Scanf.sscanf line "VmRSS: %d kB" Fun.id with
            | kb -> Some kb
            | exception _ -> find ())
      in
      let kb = find () in
      close_in ic;
      kb

(* An effect continuation that is never resumed keeps its fiber stack for
   good, so every simulation dropped with a poised process used to leak
   about 600 bytes (the model checker drops one at each backtrack from a
   sleep-set-pruned node).  [discard] unwinds the poised calls: the
   process ends up crashed, the cells are untouched, and dropping 20 000
   discarded simulations leaves the resident set where it was (it grew by
   about 12 MB when they were dropped as they stood). *)
let discard_releases_poised_calls () =
  let poised_write () =
    let sim, m = make_mem () in
    let module M = (val m) in
    let r = M.make_register ~name:"r" ~show:string_of_int 0 in
    ignore (Aba_sim.Sim.invoke sim 0 (fun () -> M.write r 1));
    sim
  in
  let sim = poised_write () in
  Aba_sim.Sim.discard sim;
  Alcotest.(check bool)
    "no longer poised" true
    (match Aba_sim.Sim.poised sim 0 with
    | _ -> false
    | exception Aba_sim.Sim.Process_crashed _ -> true);
  Alcotest.(check (list string)) "cells untouched" [ "0" ]
    (Aba_sim.Sim.reg_config sim);
  match rss_kb () with
  | None -> ()
  | Some before -> (
      for _ = 1 to 20_000 do
        Aba_sim.Sim.discard (poised_write ())
      done;
      match rss_kb () with
      | Some after when after - before > 6_000 ->
          Alcotest.failf "resident set grew by %d kB" (after - before)
      | _ -> ())

let suite =
  [
    Alcotest.test_case "register stepping" `Quick basic_register_stepping;
    Alcotest.test_case "interleaving loses updates" `Quick
      interleaving_is_real;
    Alcotest.test_case "CAS semantics (incl. base-level ABA)" `Quick
      cas_semantics;
    Alcotest.test_case "poised steps and would_succeed" `Quick
      poised_would_succeed;
    Alcotest.test_case "SC would_succeed is per-pid" `Quick sc_would_succeed;
    Alcotest.test_case "footprints and the dependence relation" `Quick
      footprints_and_conflicts;
    Alcotest.test_case "writable CAS" `Quick writable_cas;
    Alcotest.test_case "LL/SC/VL base object" `Quick llsc_base_object;
    Alcotest.test_case "bounded domains enforced" `Quick boundedness_enforced;
    Alcotest.test_case "quiescence and reg(C)" `Quick quiescence_and_config;
    Alcotest.test_case "signatures" `Quick signatures_distinguish;
    Alcotest.test_case "step tracing" `Quick tracing;
    Alcotest.test_case "zero-step calls" `Quick zero_step_calls;
    Alcotest.test_case "driver histories" `Quick driver_history_shape;
    Alcotest.test_case "discard releases poised calls" `Quick
      discard_releases_poised_calls;
  ]
