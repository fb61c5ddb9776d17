(** Directed unit tests for the primitives layer: pids, bounded domains,
    the direct memory instance, and history utilities. *)

open Aba_primitives

let pid_basics () =
  Alcotest.(check (list int)) "all" [ 0; 1; 2 ] (Pid.all ~n:3);
  Alcotest.(check (list int)) "readers" [ 1; 2 ] (Pid.readers ~n:3);
  Alcotest.(check int) "writer" 0 Pid.writer;
  Alcotest.(check bool) "valid" true (Pid.is_valid ~n:3 2);
  Alcotest.(check bool) "invalid high" false (Pid.is_valid ~n:3 3);
  Alcotest.(check bool) "invalid negative" false (Pid.is_valid ~n:3 (-1));
  Alcotest.check_raises "check raises"
    (Invalid_argument "Pid.check: pid 5 out of range [0,3)") (fun () ->
      Pid.check ~n:3 5)

let bounded_composites () =
  let d = Bounded.triple (Bounded.int_mod 3) Bounded.bool
      (Bounded.option (Bounded.int_mod 2)) in
  Alcotest.(check (option int)) "size 3*2*3" (Some 18) (Bounded.size d);
  Alcotest.(check bool) "member" true (Bounded.mem d (2, true, Some 1));
  Alcotest.(check bool) "non-member" false (Bounded.mem d (3, true, None));
  let u = Bounded.unbounded ~describe:"anything" in
  Alcotest.(check (option int)) "unbounded size" None (Bounded.size u);
  Alcotest.(check bool) "unbounded membership" true (Bounded.mem u max_int);
  Alcotest.(check string) "bits describe" "4-bit mask"
    (Bounded.describe (Bounded.bits ~width:4));
  Alcotest.(check bool) "bits member" true (Bounded.mem (Bounded.bits ~width:4) 15);
  Alcotest.(check bool) "bits non-member" false
    (Bounded.mem (Bounded.bits ~width:4) 16)

let seq_mem_llsc_convention () =
  let module M = (val Seq_mem.make ()) in
  let l = M.make_llsc ~name:"l" ~show:string_of_int 5 in
  (* Appendix A: VL by a never-linked process is true until the first
     successful SC. *)
  Alcotest.(check bool) "vl before" true (M.vl l ~pid:2);
  Alcotest.(check bool) "sc without ll (fresh object)" true (M.sc l ~pid:1 6);
  Alcotest.(check bool) "vl after" false (M.vl l ~pid:2);
  Alcotest.(check bool) "second blind sc fails" false (M.sc l ~pid:1 7)

(* [space ()] lists objects in creation order on both list-keeping
   backends. *)
let space_accounting mem () =
  let module M = (val mem () : Aba_primitives.Mem_intf.S) in
  let _ = M.make_register ~name:"r1" ~show:string_of_int 0 in
  let _ =
    M.make_cas ~bound:(Bounded.int_mod 4) ~name:"c1" ~show:string_of_int 1
  in
  let _ = M.make_llsc ~name:"l1" ~show:string_of_int 2 in
  Alcotest.(check (list (pair string string)))
    "names and domains, in creation order"
    [ ("r1", "unbounded"); ("c1", "[0..3]"); ("l1", "unbounded") ]
    (M.space ())

let seq_mem_writable_guard () =
  let module M = (val Seq_mem.make ()) in
  let c = M.make_cas ~name:"c" ~show:string_of_int 0 in
  Alcotest.check_raises "cas_write on plain CAS"
    (Invalid_argument "Seq_mem.cas_write: c is not a writable CAS object")
    (fun () -> M.cas_write c 1);
  let w = M.make_cas ~writable:true ~name:"w" ~show:string_of_int 0 in
  M.cas_write w 9;
  Alcotest.(check int) "written" 9 (M.cas_read w)

let seq_mem_bound_guard () =
  let module M = (val Seq_mem.make ()) in
  let r =
    M.make_register ~bound:(Bounded.int_mod 4) ~name:"r" ~show:string_of_int 0
  in
  M.write r 3;
  Alcotest.(check bool) "out-of-domain write rejected" true
    (match M.write r 4 with
    | () -> false
    | exception Invalid_argument _ -> true)

let event_utilities () =
  let h =
    [
      Event.Invoke (0, "a");
      Event.Invoke (1, "b");
      Event.Response (0, 1);
      Event.Invoke (0, "c");
      Event.Response (1, 2);
    ]
  in
  Alcotest.(check bool) "well formed" true (Event.well_formed h);
  let ops = Event.ops_of h in
  Alcotest.(check int) "three ops" 3 (List.length ops);
  Alcotest.(check bool) "pending op has no result" true
    (List.exists (fun (_, op, r) -> op = "c" && r = None) ops);
  let c = Event.complete h in
  Alcotest.(check int) "complete drops the pending invoke" 4 (List.length c);
  Alcotest.(check bool) "double response is malformed" false
    (Event.well_formed [ Event.Response (0, 1) ])

(* ----- Rand ----- *)

(* The first slot a pid probes through {!Rand} is
   [(xorshift_step (seed_of_pid i)) land max_int mod range].  A linear
   seeding like [(i * 2) + 1] makes that first pick periodic in the pid
   (period 8 over a 16-slot array, odd slots only), so neighbouring pids
   collide systematically.  The splitmix64 seeding must (a) give distinct
   nonzero seeds and (b) spread the first picks over most of the slot
   range, both parities included. *)
let rand_seeding_disperses_first_picks () =
  let pids = List.init 64 Fun.id in
  let seeds = List.map Rand.seed_of_pid pids in
  Alcotest.(check bool)
    "seeds are nonzero" true
    (List.for_all (fun s -> s > 0) seeds);
  Alcotest.(check int)
    "seeds are pairwise distinct" 64
    (List.length (List.sort_uniq compare seeds));
  let range = 16 in
  let first_pick i =
    Rand.xorshift_step (Rand.seed_of_pid i) land max_int mod range
  in
  let picks = List.map first_pick (List.init 16 Fun.id) in
  let distinct = List.length (List.sort_uniq compare picks) in
  Alcotest.(check bool)
    (Printf.sprintf "16 pids spread over >8 of 16 slots (got %d)" distinct)
    true (distinct > 8);
  Alcotest.(check bool)
    "both parities are picked" true
    (List.exists (fun p -> p mod 2 = 0) picks
    && List.exists (fun p -> p mod 2 = 1) picks)

let rand_state_api () =
  let r = Rand.create ~pid:3 in
  (* The boxed state must agree with the raw step on the same seed. *)
  let s0 = Rand.seed_of_pid 3 in
  let s1 = Rand.xorshift_step s0 in
  Alcotest.(check int) "next matches raw step" s1 (Rand.next r);
  let b = 10 in
  let ok = ref true in
  for _ = 1 to 1000 do
    let v = Rand.next_int r b in
    if v < 0 || v >= b then ok := false
  done;
  Alcotest.(check bool) "next_int stays in range" true !ok;
  Alcotest.check_raises "next_int rejects bound 0"
    (Invalid_argument "Rand.next_int: bound must be positive") (fun () ->
      ignore (Rand.next_int r 0))

let suite =
  [
    Alcotest.test_case "pid basics" `Quick pid_basics;
    Alcotest.test_case "splitmix64 seeding disperses first picks" `Quick
      rand_seeding_disperses_first_picks;
    Alcotest.test_case "rand state api" `Quick rand_state_api;
    Alcotest.test_case "bounded composites" `Quick bounded_composites;
    Alcotest.test_case "seq_mem LL/SC convention" `Quick
      seq_mem_llsc_convention;
    Alcotest.test_case "seq_mem space accounting" `Quick
      (space_accounting Seq_mem.make);
    Alcotest.test_case "rt_mem space accounting" `Quick
      (space_accounting (Aba_primitives.Rt_mem.make ~n:2));
    Alcotest.test_case "seq_mem writable guard" `Quick seq_mem_writable_guard;
    Alcotest.test_case "seq_mem bound guard" `Quick seq_mem_bound_guard;
    Alcotest.test_case "event utilities" `Quick event_utilities;
  ]
