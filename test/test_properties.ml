(** Property-based tests (qcheck) for the supporting machinery: bounded
    domains, the GetSeq pool, histories, and the linearizability checker
    itself (validated against a brute-force reference on tiny histories). *)

open Aba_primitives

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Bounded domains --- *)

let bounded_int_range =
  qtest "int_range membership matches bounds"
    QCheck2.Gen.(triple (int_range (-20) 20) (int_range (-20) 20) small_int)
    (fun (a, b, v) ->
      let lo = min a b and hi = max a b in
      let d = Bounded.int_range ~lo ~hi in
      Bounded.mem d v = (lo <= v && v <= hi)
      && Bounded.size d = Some (hi - lo + 1))

let bounded_pair_size =
  qtest "pair size is the product"
    QCheck2.Gen.(pair (int_range 1 20) (int_range 1 20))
    (fun (a, b) ->
      let d = Bounded.pair (Bounded.int_mod a) (Bounded.int_mod b) in
      Bounded.size d = Some (a * b))

let bounded_option =
  qtest "option adds exactly bottom"
    QCheck2.Gen.(pair (int_range 1 30) small_int)
    (fun (m, v) ->
      let d = Bounded.option (Bounded.int_mod m) in
      Bounded.size d = Some (m + 1)
      && Bounded.mem d None
      && Bounded.mem d (Some v) = (0 <= v && v < m))

(* --- Univ --- *)

let univ_roundtrip =
  qtest "embed/project roundtrip; foreign projection fails"
    QCheck2.Gen.(pair small_int small_int)
    (fun (x, y) ->
      let e1 = Univ.create () and e2 = Univ.create () in
      let u1 = e1.Univ.inj x and u2 = e2.Univ.inj y in
      e1.Univ.prj u1 = Some x
      && e2.Univ.prj u2 = Some y
      && e1.Univ.prj u2 = None
      && e2.Univ.prj u1 = None
      && Univ.equal u1 u1
      && not (Univ.equal u1 u2))

(* --- Seq_pool: the Figure 4 GetSeq guarantees --- *)

(* Whatever the announce array says, the returned number is in range and
   avoids both the announced-own numbers and the last n+1 returns. *)
let seq_pool_fresh =
  let gen =
    QCheck2.Gen.(
      pair (int_range 2 8) (list_size (int_range 1 60) (int_range 0 100)))
  in
  qtest "pool avoids announced and recent numbers" gen (fun (n, noise) ->
      let pool = Aba_core.Seq_pool.create ~n () in
      let announce = Array.make n None in
      let recent = ref [] in
      let ok = ref true in
      List.iteri
        (fun i nz ->
          (* Adversarially mutate the announce array between calls. *)
          let slot = nz mod n in
          announce.(slot) <-
            (if nz mod 3 = 0 then None
             else Some ((if nz mod 2 = 0 then 0 else 1), nz mod (2 * n + 2)));
          let seen = ref None in
          let s =
            Aba_core.Seq_pool.next pool ~me:0 ~read_announce:(fun c ->
                seen := Some c;
                announce.(c))
          in
          (* In range. *)
          if s < 0 || s > 2 * n + 1 then ok := false;
          (* Exactly one announce entry was read. *)
          if !seen = None then ok := false;
          (* Not among the last n returns (usedQ guarantee). *)
          let last_n =
            List.filteri (fun j _ -> j < n) !recent
          in
          if List.mem s last_n then ok := false;
          recent := s :: !recent;
          ignore i)
        noise;
      !ok)

(* The pool never returns a number currently announced for it, when the
   announce array is stable: scan a full round first, then check. *)
let seq_pool_avoids_announced =
  qtest "stable announcements are avoided after one round"
    QCheck2.Gen.(int_range 2 8)
    (fun n ->
      let pool = Aba_core.Seq_pool.create ~n () in
      let blocked = 3 mod (2 * n + 2) in
      let announce = Array.make n (Some (0, blocked)) in
      (* One full scan so [na] is fully populated... *)
      for _ = 1 to n do
        ignore (Aba_core.Seq_pool.next pool ~me:0 ~read_announce:(fun c -> announce.(c)))
      done;
      (* ...then every further number avoids the announced one. *)
      let ok = ref true in
      for _ = 1 to 3 * n do
        let s =
          Aba_core.Seq_pool.next pool ~me:0 ~read_announce:(fun c -> announce.(c))
        in
        if s = blocked then ok := false
      done;
      !ok)

(* --- The Figure 3 (value, mask) codec --- *)

(* The packed representation must be injective: the runtime backend CASes
   the encoded int directly, so any two distinct (value, mask) pairs that
   collided would make hardware CAS succeed where the structural CAS of the
   seq/sim backends fails. *)
module F3 = Aba_core.Llsc_from_cas

let gen_codec_case =
  (* n processes (1..40 as in the runtime wrappers), a value in the packed
     domain including the default bound's -1, and an n-bit mask. *)
  QCheck2.Gen.(
    int_range 1 40 >>= fun n ->
    triple (return n)
      (int_range (-1) ((1 lsl min 30 (62 - n)) - 1))
      (int_range 0 ((1 lsl n) - 1)))

let codec_roundtrip =
  qtest "fig3 codec: decode (encode v) = v" gen_codec_case
    (fun (n, value, mask) ->
      let c = F3.codec ~n in
      let v = { F3.value; mask } in
      c.Mem_intf.decode (c.Mem_intf.encode v) = v)

let codec_roundtrip_packed =
  qtest "fig3 codec: encode (decode p) = p"
    QCheck2.Gen.(pair (int_range 1 40) (int_range min_int max_int))
    (fun (n, p) ->
      let c = F3.codec ~n in
      c.Mem_intf.encode (c.Mem_intf.decode p) = p)

let codec_respects_bound =
  (* Encoding stays within one immediate int without overflowing into the
     sign bit: ordering of encoded words follows the (value, mask) pairs
     lexicographically, so in particular encode is monotone in value. *)
  qtest "fig3 codec: packing isolates value and mask bits" gen_codec_case
    (fun (n, value, mask) ->
      let c = F3.codec ~n in
      let p = c.Mem_intf.encode { F3.value; mask } in
      p asr n = value && p land ((1 lsl n) - 1) = mask)

(* --- Event histories --- *)

let gen_history =
  (* Random well-formed-ish event list over 3 pids, ops/res are ints. *)
  QCheck2.Gen.(
    list_size (int_range 0 20) (pair (int_range 0 2) bool))

let history_of raw =
  (* Build a well-formed history: invoke if idle, respond if pending. *)
  let pending = Array.make 3 false in
  List.filter_map
    (fun (p, _) ->
      if pending.(p) then begin
        pending.(p) <- false;
        Some (Event.Response (p, p))
      end
      else begin
        pending.(p) <- true;
        Some (Event.Invoke (p, p))
      end)
    raw

let event_well_formed =
  qtest "constructed histories are well-formed" gen_history (fun raw ->
      Event.well_formed (history_of raw))

let event_complete =
  qtest "complete drops exactly the pending invocations" gen_history
    (fun raw ->
      let h = history_of raw in
      let c = Event.complete h in
      Event.well_formed c
      && List.for_all
           (fun (_, _, res) -> res <> None)
           (Event.ops_of c)
      && List.length c <= List.length h)

let event_ops_pairing =
  qtest "ops_of pairs every response" gen_history (fun raw ->
      let h = history_of raw in
      let ops = Event.ops_of h in
      let responses =
        List.length (List.filter (fun e -> not (Event.is_invoke e)) h)
      in
      List.length (List.filter (fun (_, _, r) -> r <> None) ops) = responses)

(* --- Lin_check vs. brute force --- *)

module RSpec = Aba_spec.Register_spec
module RCheck = Aba_spec.Lin_check.Make (RSpec)

(* Reference: the brute-force oracle shared with the lin-check suite. *)
module ROracle = Test_support.Lin_oracle (RSpec)

let gen_register_history =
  (* Short histories on a register with small values so brute force is
     feasible. *)
  QCheck2.Gen.(
    list_size (int_range 0 10)
      (triple (int_range 0 2) bool (int_range 0 2)))

let checker_matches_brute_force =
  qtest ~count:300 "Lin_check agrees with brute force (register)"
    gen_register_history (fun raw ->
      (* Build a random complete history with plausible-but-possibly-wrong
         results so both verdicts get exercised. *)
      let pending : (int, RSpec.op) Hashtbl.t = Hashtbl.create 4 in
      let h =
        List.filter_map
          (fun (p, is_write, v) ->
            match Hashtbl.find_opt pending p with
            | Some op ->
                Hashtbl.remove pending p;
                let res =
                  match op with
                  | RSpec.Read -> RSpec.Read_result (v - 1)
                  | RSpec.Write _ -> RSpec.Write_done
                in
                Some (Event.Response (p, res))
            | None ->
                let op = if is_write then RSpec.Write v else RSpec.Read in
                Hashtbl.replace pending p op;
                Some (Event.Invoke (p, op)))
          raw
      in
      let h = Event.complete h in
      if List.length (Event.ops_of h) > 6 then true
      else
        let fast = RCheck.check_ok ~n:3 h in
        let slow = ROracle.linearizable ~n:3 h in
        fast = slow)

(* --- Explore.count_schedules --- *)

let count_schedules_props =
  qtest "count_schedules is the multinomial"
    QCheck2.Gen.(pair (int_range 0 6) (int_range 0 6))
    (fun (a, b) ->
      let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
      Aba_sim.Explore.count_schedules ~n_actions:[| a; b |]
      = fact (a + b) / (fact a * fact b))

let suite =
  [
    bounded_int_range;
    bounded_pair_size;
    bounded_option;
    univ_roundtrip;
    codec_roundtrip;
    codec_roundtrip_packed;
    codec_respects_bound;
    seq_pool_fresh;
    seq_pool_avoids_announced;
    event_well_formed;
    event_complete;
    event_ops_pairing;
    checker_matches_brute_force;
    count_schedules_props;
  ]
