(** Directed unit tests for the linearizability checker on hand-crafted
    histories whose verdicts are known. *)

open Aba_primitives
module R = Aba_spec.Register_spec
module RC = Aba_spec.Lin_check.Make (R)
module A = Aba_spec.Aba_register_spec
module AC = Aba_spec.Lin_check.Make (A)
module L = Aba_spec.Llsc_spec
module LC = Aba_spec.Lin_check.Make (L)

let ok = Alcotest.(check bool) "linearizable" true
let bad = Alcotest.(check bool) "not linearizable" false

let empty_history () = ok (RC.check_ok ~n:2 [])

let sequential_register () =
  ok
    (RC.check_ok ~n:2
       [
         Event.Invoke (0, R.Write 1);
         Event.Response (0, R.Write_done);
         Event.Invoke (1, R.Read);
         Event.Response (1, R.Read_result 1);
       ])

let stale_read_rejected () =
  bad
    (RC.check_ok ~n:2
       [
         Event.Invoke (0, R.Write 1);
         Event.Response (0, R.Write_done);
         Event.Invoke (1, R.Read);
         Event.Response (1, R.Read_result (-1));
       ])

let overlapping_read_may_be_stale () =
  (* The read overlaps the write, so either result linearizes. *)
  let h result =
    [
      Event.Invoke (1, R.Read);
      Event.Invoke (0, R.Write 1);
      Event.Response (0, R.Write_done);
      Event.Response (1, R.Read_result result);
    ]
  in
  ok (RC.check_ok ~n:2 (h (-1)));
  ok (RC.check_ok ~n:2 (h 1))

let pending_op_may_have_taken_effect () =
  (* The write never responds, yet the read may observe it. *)
  ok
    (RC.check_ok ~n:2
       [
         Event.Invoke (0, R.Write 7);
         Event.Invoke (1, R.Read);
         Event.Response (1, R.Read_result 7);
       ])

let pending_op_need_not_take_effect () =
  ok
    (RC.check_ok ~n:2
       [
         Event.Invoke (0, R.Write 7);
         Event.Invoke (1, R.Read);
         Event.Response (1, R.Read_result (-1));
       ])

let real_time_order_enforced () =
  (* Two sequential writes then a read of the first one: invalid. *)
  bad
    (RC.check_ok ~n:2
       [
         Event.Invoke (0, R.Write 1);
         Event.Response (0, R.Write_done);
         Event.Invoke (0, R.Write 2);
         Event.Response (0, R.Write_done);
         Event.Invoke (1, R.Read);
         Event.Response (1, R.Read_result 1);
       ])

(* --- ABA-detecting register specifics --- *)

let aba_flag_must_fire () =
  bad
    (AC.check_ok ~n:2
       [
         Event.Invoke (1, A.DRead);
         Event.Response (1, A.Read_result (-1, false));
         Event.Invoke (0, A.DWrite 1);
         Event.Response (0, A.Write_done);
         Event.Invoke (1, A.DRead);
         Event.Response (1, A.Read_result (1, false));
       ])

let aba_flag_must_not_fire () =
  bad
    (AC.check_ok ~n:2
       [
         Event.Invoke (1, A.DRead);
         Event.Response (1, A.Read_result (-1, false));
         Event.Invoke (1, A.DRead);
         Event.Response (1, A.Read_result (-1, true));
       ])

let aba_flags_are_per_process () =
  (* Both readers must see the single write once each. *)
  ok
    (AC.check_ok ~n:3
       [
         Event.Invoke (0, A.DWrite 5);
         Event.Response (0, A.Write_done);
         Event.Invoke (1, A.DRead);
         Event.Response (1, A.Read_result (5, true));
         Event.Invoke (2, A.DRead);
         Event.Response (2, A.Read_result (5, true));
         Event.Invoke (1, A.DRead);
         Event.Response (1, A.Read_result (5, false));
       ])

let aba_same_value_write_detected () =
  ok
    (AC.check_ok ~n:2
       [
         Event.Invoke (0, A.DWrite 1);
         Event.Response (0, A.Write_done);
         Event.Invoke (1, A.DRead);
         Event.Response (1, A.Read_result (1, true));
         Event.Invoke (0, A.DWrite 1);
         Event.Response (0, A.Write_done);
         Event.Invoke (1, A.DRead);
         Event.Response (1, A.Read_result (1, true));
       ])

(* --- LL/SC specifics --- *)

let llsc_interference () =
  ok
    (LC.check_ok ~n:2
       [
         Event.Invoke (0, L.Ll);
         Event.Response (0, L.Ll_result 0);
         Event.Invoke (1, L.Ll);
         Event.Response (1, L.Ll_result 0);
         Event.Invoke (0, L.Sc 1);
         Event.Response (0, L.Sc_result true);
         Event.Invoke (1, L.Sc 2);
         Event.Response (1, L.Sc_result false);
       ])

let llsc_both_succeed_rejected () =
  bad
    (LC.check_ok ~n:2
       [
         Event.Invoke (0, L.Ll);
         Event.Response (0, L.Ll_result 0);
         Event.Invoke (1, L.Ll);
         Event.Response (1, L.Ll_result 0);
         Event.Invoke (0, L.Sc 1);
         Event.Response (0, L.Sc_result true);
         Event.Invoke (1, L.Sc 2);
         Event.Response (1, L.Sc_result true);
       ])

let llsc_overlapping_scs () =
  (* Concurrent SCs: exactly one may win, either one. *)
  let h first_wins =
    [
      Event.Invoke (0, L.Ll);
      Event.Response (0, L.Ll_result 0);
      Event.Invoke (1, L.Ll);
      Event.Response (1, L.Ll_result 0);
      Event.Invoke (0, L.Sc 1);
      Event.Invoke (1, L.Sc 2);
      Event.Response (0, L.Sc_result first_wins);
      Event.Response (1, L.Sc_result (not first_wins));
    ]
  in
  ok (LC.check_ok ~n:2 (h true));
  ok (LC.check_ok ~n:2 (h false))

let witness_is_a_linearization () =
  let h =
    [
      Event.Invoke (1, R.Read);
      Event.Invoke (0, R.Write 1);
      Event.Response (0, R.Write_done);
      Event.Response (1, R.Read_result 1);
    ]
  in
  match RC.witness ~n:2 h with
  | Some order ->
      Alcotest.(check int) "both ops linearized" 2 (List.length order);
      (* The write must precede the read in the produced order. *)
      let kinds = List.map (fun (_, op, _) -> op) order in
      Alcotest.(check bool) "write before read" true
        (kinds = [ R.Write 1; R.Read ])
  | None -> Alcotest.fail "expected a witness"

let malformed_history_rejected () =
  let rejects what h =
    Alcotest.check_raises what
      (Invalid_argument "Lin_check: history is not well formed") (fun () ->
        ignore (RC.check_ok ~n:2 h))
  in
  rejects "double invoke"
    [ Event.Invoke (0, R.Read); Event.Invoke (0, R.Read) ];
  rejects "second invoke while the first is open"
    [
      Event.Invoke (0, R.Read);
      Event.Invoke (1, R.Write 1);
      Event.Response (1, R.Write_done);
      Event.Invoke (0, R.Write 2);
    ];
  rejects "response with no invocation" [ Event.Response (1, R.Write_done) ];
  rejects "response after the operation already responded"
    [
      Event.Invoke (0, R.Read);
      Event.Response (0, R.Read_result (-1));
      Event.Response (0, R.Read_result (-1));
    ]

(* --- Differential: the memoized search against brute force --- *)

(* Random histories of at most 6 operations over 2 or 3 processes.  Each
   raw step either responds to its process's open operation or invokes a
   new one; operations still open at the end stay pending.  A response is
   what the specification gives when the operations are applied in
   response order, replaced by an arbitrary one when [corrupt] is set, so
   both verdicts occur. *)
module Differential (S : Aba_spec.Seq_spec.S) (G : sig
  val name : string
  val op_of : int -> S.op
  val arbitrary_res : S.op -> int -> S.res
end) =
struct
  module C = Aba_spec.Lin_check.Make (S)
  module O = Test_support.Lin_oracle (S)

  let history (npids, raw) =
    let st = ref (S.init ~n:npids) in
    let open_op = Array.make npids None in
    let invoked = ref 0 in
    List.filter_map
      (fun (p, sel, corrupt, r) ->
        let p = p mod npids in
        match open_op.(p) with
        | Some op ->
            open_op.(p) <- None;
            let st', res = S.apply !st p op in
            st := st';
            let res = if corrupt then G.arbitrary_res op r else res in
            Some (Event.Response (p, res))
        | None when !invoked < 6 ->
            incr invoked;
            let op = G.op_of sel in
            open_op.(p) <- Some op;
            Some (Event.Invoke (p, op))
        | None -> None)
      raw

  let gen =
    QCheck2.Gen.(
      pair (int_range 2 3)
        (list_size (int_range 0 14)
           (quad (int_range 0 2) (int_range 0 3)
              (map (fun k -> k = 0) (int_range 0 3))
              (int_range 0 5))))

  let test =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:2000
         ~name:("check agrees with brute force (" ^ G.name ^ ")")
         gen
         (fun input ->
           let n = fst input in
           let h = history input in
           C.check_ok ~n h = O.linearizable ~n h))
end

module Aba_differential =
  Differential
    (A)
    (struct
      let name = "ABA register"

      let op_of = function
        | 0 | 1 -> A.DRead
        | 2 -> A.DWrite 1
        | _ -> A.DWrite 2

      let arbitrary_res op r =
        match op with
        | A.DRead -> A.Read_result ((r mod 3) - 1, r >= 3)
        | A.DWrite _ -> A.Write_done
    end)

module Llsc_differential =
  Differential
    (L)
    (struct
      let name = "LL/SC"

      let op_of = function
        | 0 -> L.Ll
        | 1 -> L.Sc 1
        | 2 -> L.Sc 2
        | _ -> L.Vl

      let arbitrary_res op r =
        match op with
        | L.Ll -> L.Ll_result (r mod 3)
        | L.Sc _ -> L.Sc_result (r mod 2 = 0)
        | L.Vl -> L.Vl_result (r mod 2 = 0)
    end)

let suite =
  [
    Alcotest.test_case "empty history" `Quick empty_history;
    Alcotest.test_case "sequential register" `Quick sequential_register;
    Alcotest.test_case "stale read rejected" `Quick stale_read_rejected;
    Alcotest.test_case "overlapping read has both options" `Quick
      overlapping_read_may_be_stale;
    Alcotest.test_case "pending op may take effect" `Quick
      pending_op_may_have_taken_effect;
    Alcotest.test_case "pending op may be dropped" `Quick
      pending_op_need_not_take_effect;
    Alcotest.test_case "real-time order enforced" `Quick
      real_time_order_enforced;
    Alcotest.test_case "ABA flag must fire" `Quick aba_flag_must_fire;
    Alcotest.test_case "ABA flag must not fire" `Quick aba_flag_must_not_fire;
    Alcotest.test_case "ABA flags are per process" `Quick
      aba_flags_are_per_process;
    Alcotest.test_case "same-value write detected" `Quick
      aba_same_value_write_detected;
    Alcotest.test_case "LL/SC interference" `Quick llsc_interference;
    Alcotest.test_case "LL/SC double success rejected" `Quick
      llsc_both_succeed_rejected;
    Alcotest.test_case "LL/SC overlapping SCs" `Quick llsc_overlapping_scs;
    Alcotest.test_case "witness is a linearization" `Quick
      witness_is_a_linearization;
    Alcotest.test_case "malformed history rejected" `Quick
      malformed_history_rejected;
    Aba_differential.test;
    Llsc_differential.test;
  ]
