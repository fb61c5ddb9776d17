(** The ingress tier: the bounded MPMC ring queue ({!Aba_queue.Ring_queue}
    and its runtime instantiation {!Aba_queue.Rt_ring}), the blocking
    backpressure wrapper, and the two-lock baseline.

    The load-bearing tests here are the sequence-wraparound regression —
    the ring's per-slot sequence numbers are bounded ABA tags, and with a
    deliberately tiny [seq_bits] the slot words wrap many times over a
    run that must stay exactly FIFO — and the 4-domain [Bounded]-mix
    churn audits, which catch duplicated or invented values (the ABA
    corruption signature) under real contention. *)

open Aba_primitives
module Obs = Aba_obs.Obs
module Ring = Aba_queue.Ring_queue
module Rt_ring = Aba_queue.Rt_ring
module Blocking = Aba_queue.Blocking
module Two_lock = Aba_queue.Two_lock_queue
module Seq_ring = Ring.Make ((val Seq_mem.make ()))

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- Sequential semantics (seq backend) ----- *)

let fifo_and_bounds () =
  let q = Seq_ring.create ~capacity:3 ~n:1 () in
  check_int "empty length" 0 (Seq_ring.length q);
  check_bool "deq on empty" true (Seq_ring.try_dequeue q ~pid:0 = None);
  check_bool "enq 1" true (Seq_ring.try_enqueue q ~pid:0 1);
  check_bool "enq 2" true (Seq_ring.try_enqueue q ~pid:0 2);
  check_bool "enq 3" true (Seq_ring.try_enqueue q ~pid:0 3);
  check_bool "enq on full fails" false (Seq_ring.try_enqueue q ~pid:0 4);
  check_int "full length" 3 (Seq_ring.length q);
  check_bool "deq 1" true (Seq_ring.try_dequeue q ~pid:0 = Some 1);
  check_bool "enq after deq" true (Seq_ring.try_enqueue q ~pid:0 4);
  check_bool "deq 2" true (Seq_ring.try_dequeue q ~pid:0 = Some 2);
  check_bool "deq 3" true (Seq_ring.try_dequeue q ~pid:0 = Some 3);
  check_bool "deq 4" true (Seq_ring.try_dequeue q ~pid:0 = Some 4);
  check_bool "deq on drained" true (Seq_ring.try_dequeue q ~pid:0 = None);
  check_int "dequeue_or default" 42 (Seq_ring.dequeue_or q ~pid:0 ~default:42)

let create_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "capacity 0 rejected" true
    (bad (fun () -> Seq_ring.create ~capacity:0 ~n:1 ()));
  check_bool "n 0 rejected" true
    (bad (fun () -> Seq_ring.create ~capacity:1 ~n:0 ()));
  check_bool "seq_bits 1 rejected" true
    (bad (fun () -> Seq_ring.create ~seq_bits:1 ~capacity:1 ~n:1 ()));
  check_bool "seq_bits 62 rejected" true
    (bad (fun () -> Seq_ring.create ~seq_bits:62 ~capacity:1 ~n:1 ()));
  check_bool "capacity >= 2^(seq_bits-1) rejected" true
    (bad (fun () -> Seq_ring.create ~seq_bits:4 ~capacity:8 ~n:1 ()));
  check_bool "capacity just under the bound accepted" true
    (match Seq_ring.create ~seq_bits:4 ~capacity:7 ~n:1 () with
    | q -> Seq_ring.capacity q = 7 && Seq_ring.seq_bits q = 4)

(* ----- Sequence wraparound regression ----- *)

(* With [seq_bits = 4] the slot sequence words live in [0, 15]: every 16
   positions through a slot wraps its tag.  Drive a capacity-3 ring
   through 400 enqueue/dequeue pairs — ~133 laps, ~25 wraps of every
   slot word — against a reference FIFO.  The signed-window comparison
   must keep the transcript exactly FIFO through every wrap; a naive
   [seq >= pos] comparison dies at the first one. *)
let wraparound_fifo () =
  let q = Seq_ring.create ~seq_bits:4 ~capacity:3 ~n:1 () in
  let model = Queue.create () in
  let mismatch = ref None in
  for i = 1 to 400 do
    check_bool
      (Printf.sprintf "enq %d accepted" i)
      true
      (Seq_ring.try_enqueue q ~pid:0 i);
    Queue.push i model;
    (* Alternate 1- and 2-deep drains so the ring visits different
       occupancies (and therefore different head/tail offsets) each lap. *)
    let drains = 1 + (i land 1) in
    for _ = 1 to min drains (Queue.length model) do
      let expected = Queue.pop model in
      match Seq_ring.try_dequeue q ~pid:0 with
      | Some v when v = expected -> ()
      | got ->
          if !mismatch = None then
            mismatch :=
              Some
                (Printf.sprintf "at op %d: expected Some %d, got %s" i expected
                   (match got with
                   | Some v -> Printf.sprintf "Some %d" v
                   | None -> "None"))
    done
  done;
  (match !mismatch with
  | Some msg -> Alcotest.fail ("FIFO transcript diverged across wraps: " ^ msg)
  | None -> ());
  check_int "model and ring drain together" (Queue.length model)
    (Seq_ring.length q)

(* The same adversarial tag width on the runtime instantiation, under
   4-domain bounded churn: wrapping tags must not let the audit catch a
   duplicated or invented value. *)
let wraparound_churn_rt () =
  let n = 4 in
  let q = Rt_ring.create ~seq_bits:6 ~capacity:4 ~n () in
  let report =
    Aba_runtime.Harness.churn ~mix:Aba_runtime.Harness.Bounded ~n ~ops:2000
      ~push:(fun ~pid v -> Rt_ring.try_enqueue q ~pid v)
      ~pop:(fun ~pid -> Rt_ring.try_dequeue q ~pid)
      ()
  in
  (match report.Aba_runtime.Harness.outcome with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("wraparound churn audit: " ^ msg));
  check_int "conservation" report.Aba_runtime.Harness.pushed
    (report.Aba_runtime.Harness.popped + report.Aba_runtime.Harness.remaining)

(* ----- Bounded churn audits (the acceptance workload) ----- *)

(* Each structure is built inside the test thunk, before [Harness.churn]
   starts its domains: a lazily built structure forced from 4 churn
   domains at once races ([CamlinternalLazy.Undefined] on multi-core). *)
let churn_audit name make push pop () =
  let q = make () in
  let report =
    Aba_runtime.Harness.churn ~mix:Aba_runtime.Harness.Bounded ~n:4 ~ops:5000
      ~push:(push q) ~pop:(pop q) ()
  in
  (match report.Aba_runtime.Harness.outcome with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (name ^ " audit: " ^ msg));
  check_bool (name ^ ": made progress") true
    (report.Aba_runtime.Harness.popped > 0);
  check_int
    (name ^ ": conservation")
    report.Aba_runtime.Harness.pushed
    (report.Aba_runtime.Harness.popped + report.Aba_runtime.Harness.remaining)

let ring_churn =
  churn_audit "rt ring"
    (fun () -> Rt_ring.create ~capacity:64 ~n:4 ())
    Rt_ring.try_enqueue Rt_ring.try_dequeue

let blocking_churn =
  churn_audit "blocking ring"
    (fun () -> Blocking.create ~max_polls:4 ~capacity:64 ~n:4 ())
    Blocking.enqueue
    (fun q ~pid -> Rt_ring.try_dequeue (Blocking.ring q) ~pid)

let two_lock_churn =
  churn_audit "two-lock"
    (fun () -> Two_lock.create ~capacity:64 ~n:4 ())
    Two_lock.try_enqueue Two_lock.try_dequeue

(* ----- Blocking wrapper ----- *)

let blocking_bounds_and_obs () =
  let obs = Obs.create ~n:1 () in
  let q = Blocking.create ~obs ~max_polls:3 ~capacity:2 ~n:1 () in
  check_bool "enq 1" true (Blocking.enqueue q ~pid:0 1);
  check_bool "enq 2" true (Blocking.enqueue q ~pid:0 2);
  (* Nobody will drain: the wait window must expire against the bound. *)
  check_bool "enq on full times out" false (Blocking.enqueue q ~pid:0 3);
  check_bool "deq 1" true (Blocking.dequeue q ~pid:0 = Some 1);
  check_bool "deq 2" true (Blocking.dequeue q ~pid:0 = Some 2);
  check_bool "deq on empty times out" true (Blocking.dequeue q ~pid:0 = None);
  (* The wait phase is recorded separately from the ring's own events:
     exactly one full-side and one empty-side wait, both timeouts, each
     charged max_polls retries. *)
  check_int "one wait-full event" 1 (Obs.op_count obs Obs.Wait_full);
  check_int "one wait-empty event" 1 (Obs.op_count obs Obs.Wait_empty);
  check_int "wait-full polls" 3 (Obs.retry_count obs Obs.Wait_full);
  check_int "wait-empty polls" 3 (Obs.retry_count obs Obs.Wait_empty);
  let timeouts =
    List.filter
      (fun (e : Obs.event) ->
        (e.kind = Obs.Wait_full || e.kind = Obs.Wait_empty)
        && e.outcome = Obs.Timeout)
      (Obs.timeline obs)
  in
  check_int "both waits timed out" 2 (List.length timeouts)

(* Producer/consumer across the bound: a capacity-2 queue moves 500
   values intact because full-side waits find space when the consumer
   drains.  [max_polls] is large enough that a descheduled counterparty
   cannot starve the window on one core. *)
let blocking_producer_consumer () =
  let q = Blocking.create ~max_polls:1_000_000 ~capacity:2 ~n:2 () in
  let total = 500 in
  let results =
    Aba_runtime.Harness.run_domains ~n:2 (fun d ->
        if d = 0 then begin
          let sent = ref 0 in
          for v = 1 to total do
            if Blocking.enqueue q ~pid:0 v then incr sent
          done;
          !sent
        end
        else begin
          let got = ref 0 and last = ref 0 and ordered = ref true in
          while !got < total do
            match Blocking.dequeue q ~pid:1 with
            | Some v ->
                if v <= !last then ordered := false;
                last := v;
                incr got
            | None -> ()
          done;
          if !ordered then !got else -1
        end)
  in
  check_int "all values sent" total results.(0);
  check_int "all values received in order" total results.(1)

(* Wait-phase pacing discipline: the per-pid backoff window must read
   its base value between operations — in particular after a timed-out
   wait, which walks the window all the way up to its max.  The
   regression was a timeout path that left the window inflated, so the
   next operation's first polls were paced as if it had already been
   waiting. *)
let blocking_wait_window_reset () =
  let q =
    Blocking.create
      ~backoff:(Backoff.Exp { min_spins = 1; max_spins = 64 })
      ~max_polls:8 ~capacity:2 ~n:1 ()
  in
  check_int "base window before any wait" 1 (Blocking.wait_spins q ~pid:0);
  check_bool "enq 1" true (Blocking.enqueue q ~pid:0 1);
  check_bool "enq 2" true (Blocking.enqueue q ~pid:0 2);
  check_int "fast-path enqueues leave the window untouched" 1
    (Blocking.wait_spins q ~pid:0);
  (* Single domain, full queue: the wait can only time out, and its 8
     backoff-paced polls double the window well past the base. *)
  check_bool "enq on full times out" false (Blocking.enqueue q ~pid:0 3);
  check_int "post-timeout window is back at base" 1
    (Blocking.wait_spins q ~pid:0);
  check_bool "deq 1" true (Blocking.dequeue q ~pid:0 = Some 1);
  check_bool "deq 2" true (Blocking.dequeue q ~pid:0 = Some 2);
  check_bool "deq on empty times out" true (Blocking.dequeue q ~pid:0 = None);
  check_int "post-empty-timeout window is back at base" 1
    (Blocking.wait_spins q ~pid:0)

let blocking_validation () =
  check_bool "max_polls 0 rejected" true
    (try
       ignore (Blocking.create ~max_polls:0 ~capacity:1 ~n:1 ());
       false
     with Invalid_argument _ -> true)

(* ----- Two-lock baseline ----- *)

let two_lock_fifo () =
  let q = Two_lock.create ~capacity:2 ~n:1 () in
  check_bool "deq on empty" true (Two_lock.try_dequeue q ~pid:0 = None);
  check_bool "enq 1" true (Two_lock.try_enqueue q ~pid:0 1);
  check_bool "enq 2" true (Two_lock.try_enqueue q ~pid:0 2);
  check_bool "enq on full fails" false (Two_lock.try_enqueue q ~pid:0 3);
  check_int "length" 2 (Two_lock.length q);
  check_bool "deq 1" true (Two_lock.try_dequeue q ~pid:0 = Some 1);
  check_bool "deq 2" true (Two_lock.try_dequeue q ~pid:0 = Some 2);
  check_bool "drained" true (Two_lock.try_dequeue q ~pid:0 = None);
  check_int "dequeue_or default" 7 (Two_lock.dequeue_or q ~pid:0 ~default:7)

(* ----- Observability integration ----- *)

let ring_obs_counts () =
  let obs = Obs.create ~n:1 () in
  let q = Rt_ring.create ~obs ~capacity:2 ~n:1 () in
  ignore (Rt_ring.try_enqueue q ~pid:0 1 : bool);
  ignore (Rt_ring.try_enqueue q ~pid:0 2 : bool);
  ignore (Rt_ring.try_enqueue q ~pid:0 3 : bool);
  ignore (Rt_ring.try_dequeue q ~pid:0 : int option);
  ignore (Rt_ring.dequeue_or q ~pid:0 ~default:0 : int);
  ignore (Rt_ring.try_dequeue q ~pid:0 : int option);
  check_int "three enqueue events" 3 (Obs.op_count obs Obs.Enqueue);
  check_int "three dequeue events" 3 (Obs.op_count obs Obs.Dequeue);
  let by outcome kind =
    List.length
      (List.filter
         (fun (e : Obs.event) -> e.kind = kind && e.outcome = outcome)
         (Obs.timeline obs))
  in
  check_int "one full enqueue" 1 (by Obs.Fail Obs.Enqueue);
  check_int "one empty dequeue" 1 (by Obs.Empty Obs.Dequeue)

let ring_space_accounting () =
  (* One CAS word per end plus one seq and one value register per slot:
     the measured space is 2 + 2*capacity base objects — the m the DESIGN
     note compares against the paper's per-operation bounds.  A fresh
     memory instance, because [space] reports every object the instance
     ever created and [Seq_ring] is shared across the tests above. *)
  let module M = (val Seq_mem.make ()) in
  let module Q = Ring.Make (M) in
  let q = Q.create ~capacity:3 ~n:1 () in
  let entries = Q.space q in
  let count prefix =
    List.length
      (List.filter
         (fun (name, _) -> String.length name >= String.length prefix
                           && String.sub name 0 (String.length prefix) = prefix)
         entries)
  in
  check_int "one head" 1 (count "ring.head");
  check_int "one tail" 1 (count "ring.tail");
  check_int "capacity seq words" 3 (count "ring.seq[");
  check_int "capacity value words" 3 (count "ring.val[")

let suite =
  [
    Alcotest.test_case "ring FIFO and capacity bounds (seq)" `Quick
      fifo_and_bounds;
    Alcotest.test_case "ring create validation" `Quick create_validation;
    Alcotest.test_case "4-bit slot tags: FIFO across ~25 wraps" `Quick
      wraparound_fifo;
    Alcotest.test_case "6-bit slot tags: 4-domain churn audit" `Quick
      wraparound_churn_rt;
    Alcotest.test_case "rt ring: 4-domain bounded churn audit" `Quick
      ring_churn;
    Alcotest.test_case "blocking ring: 4-domain bounded churn audit" `Quick
      blocking_churn;
    Alcotest.test_case "two-lock: 4-domain bounded churn audit" `Quick
      two_lock_churn;
    Alcotest.test_case "blocking waits: bounds, timeouts, wait obs" `Quick
      blocking_bounds_and_obs;
    Alcotest.test_case "blocking producer/consumer across the bound" `Quick
      blocking_producer_consumer;
    Alcotest.test_case "blocking wait window resets to base" `Quick
      blocking_wait_window_reset;
    Alcotest.test_case "blocking create validation" `Quick blocking_validation;
    Alcotest.test_case "two-lock FIFO and bounds" `Quick two_lock_fifo;
    Alcotest.test_case "ring obs: outcomes per kind" `Quick ring_obs_counts;
    Alcotest.test_case "ring space accounting" `Quick ring_space_accounting;
  ]
