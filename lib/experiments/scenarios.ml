open Aba_primitives
open Aba_core
module Aba_op = Aba_spec.Aba_register_spec
module Llsc_op = Aba_spec.Llsc_spec
module Explore = Aba_sim.Explore
module Slot = Aba_runtime.Elimination.Slot

module Aba_check = Aba_spec.Lin_check.Make (Aba_spec.Aba_register_spec)
module Llsc_check = Aba_spec.Lin_check.Make (Aba_spec.Llsc_spec)

(* The ring scenario's queue has capacity 2; the capacity is part of the
   object's identity, so the spec is instantiated once, at that size. *)
module Ring2_spec = Aba_spec.Ring_spec.Make (struct
  let capacity = 2
end)

module Ring2_check = Aba_spec.Lin_check.Make (Ring2_spec)

type report = {
  name : string;
  description : string;
  n : int;
  expect_violation : bool;
  verdict : string;
  passed : bool;
  schedules : int;
  violation_schedule : int list option;
  stats : Explore.dpor_stats;
}

type t = {
  id : string;
  about : string;
  n_procs : int;
  expects_violation : bool;
  heavy : bool;
  run : ?max_schedules:int -> ?preemption_bound:int -> unit -> report;
}

let run_dpor ~name ~description ~n ~expect_violation ?(crash_bound = 0)
    ?on_crash ~make ~scripts ~check ?(max_schedules = 500_000)
    ?preemption_bound () =
  let { Explore.verdict; stats } =
    Explore.dpor ~make ~scripts ~check ~max_schedules ?preemption_bound
      ~crash_bound ?on_crash ()
  in
  let verdict_s, schedules, violation_schedule =
    match verdict with
    | Explore.Ok k -> ("ok", k, None)
    | Explore.Violation (sched, _) ->
        ("violation", stats.Explore.explored, Some sched)
    | Explore.Budget_exhausted k -> ("budget-exhausted", k, None)
  in
  let passed =
    if expect_violation then verdict_s = "violation"
    else verdict_s <> "violation"
  in
  {
    name;
    description;
    n;
    expect_violation;
    verdict = verdict_s;
    passed;
    schedules;
    violation_schedule;
    stats;
  }

(* ----- register / LL/SC scenarios ----- *)

let aba_scenario ~id ~about ?(heavy = false) ?(expects_violation = false)
    ?(combining = false) builder scripts =
  let n = Array.length scripts in
  let make () =
    let sim = Aba_sim.Sim.create ~n in
    let inst = Instances.aba_in_sim ~combining builder sim ~n in
    {
      Explore.driver =
        Aba_sim.Driver.create ~sim ~apply:(Workloads.apply_aba inst);
    }
  in
  {
    id;
    about;
    n_procs = n;
    expects_violation;
    heavy;
    run =
      (fun ?max_schedules ?preemption_bound () ->
        run_dpor ~name:id ~description:about ~n
          ~expect_violation:expects_violation ~make ~scripts
          ~check:(Aba_check.check_ok ~n) ?max_schedules ?preemption_bound ());
  }

let llsc_scenario ~id ~about ?(heavy = false) builder scripts =
  let n = Array.length scripts in
  {
    id;
    about;
    n_procs = n;
    expects_violation = false;
    heavy;
    run =
      (fun ?max_schedules ?preemption_bound () ->
        run_dpor ~name:id ~description:about ~n ~expect_violation:false
          ~make:(Workloads.llsc_explore_instance builder ~n)
          ~scripts
          ~check:(Llsc_check.check_ok ~n)
          ?max_schedules ?preemption_bound ());
  }

(* ----- elimination slot scenario -----

   A single exchanger slot running the {!Aba_runtime.Elimination} protocol
   ({!Slot} codec, bounded poll window, withdraw-by-CAS, waiter-only
   reset), rebuilt over simulator memory so every transition is a
   schedulable step.  The production exchanger runs the same state machine
   on raw atomics; this is its step-model twin. *)

type xop = X_push of int | X_pop
type xres = X_pushed of bool | X_popped of int option

let exchanger_instance ~window ~n () =
  let sim = Aba_sim.Sim.create ~n in
  let m = Aba_sim.Sim_mem.make sim in
  let module M = (val m : Mem_intf.S) in
  let slot =
    M.make_cas ~writable:true ~name:"x.slot" ~show:string_of_int
      (Slot.encode Slot.Empty)
  in
  let enc = Slot.encode in
  (* The waiter owns EXCHANGED exclusively, so its reset is a plain
     write, exactly as in the production exchanger. *)
  let push v =
    let s0 = M.cas_read slot in
    match Slot.decode s0 with
    | Slot.Waiting_pop ->
        M.cas slot ~expect:s0 ~update:(enc (Slot.Exchanged v))
    | Slot.Empty ->
        if M.cas slot ~expect:s0 ~update:(enc (Slot.Waiting_push v)) then begin
          let taken = ref false and gone = ref false and polls = ref 0 in
          while not (!taken || !gone) do
            match Slot.decode (M.cas_read slot) with
            | Slot.Exchanged _ ->
                M.cas_write slot (enc Slot.Empty);
                taken := true
            | _ ->
                incr polls;
                if !polls >= window then
                  if
                    M.cas slot
                      ~expect:(enc (Slot.Waiting_push v))
                      ~update:(enc Slot.Empty)
                  then gone := true
                  else begin
                    (* the withdraw lost: a pop moved us to EXCHANGED *)
                    M.cas_write slot (enc Slot.Empty);
                    taken := true
                  end
          done;
          !taken
        end
        else false
    | Slot.Waiting_push _ | Slot.Exchanged _ -> false
  in
  let pop () =
    let s0 = M.cas_read slot in
    match Slot.decode s0 with
    | Slot.Waiting_push v ->
        if M.cas slot ~expect:s0 ~update:(enc (Slot.Exchanged v)) then Some v
        else None
    | Slot.Empty ->
        if M.cas slot ~expect:s0 ~update:(enc Slot.Waiting_pop) then begin
          let res = ref None and gone = ref false and polls = ref 0 in
          while not (Option.is_some !res || !gone) do
            match Slot.decode (M.cas_read slot) with
            | Slot.Exchanged v ->
                M.cas_write slot (enc Slot.Empty);
                res := Some v
            | _ ->
                incr polls;
                if !polls >= window then
                  if
                    M.cas slot ~expect:(enc Slot.Waiting_pop)
                      ~update:(enc Slot.Empty)
                  then gone := true
          done;
          !res
        end
        else None
    | Slot.Waiting_pop | Slot.Exchanged _ -> None
  in
  let apply _pid op () =
    match op with
    | X_push v -> X_pushed (push v)
    | X_pop -> X_popped (pop ())
  in
  { Explore.driver = Aba_sim.Driver.create ~sim ~apply }

(* Pairing invariant, invariant across equivalent schedules: the multiset
   of values taken by pops equals the multiset of values whose push
   reported "handed over".  A value can never be both withdrawn and
   consumed, or consumed twice. *)
let exchange_check h =
  let given = ref [] and taken = ref [] in
  List.iter
    (fun (_, op, res) ->
      match (op, res) with
      | X_push v, Some (X_pushed true) -> given := v :: !given
      | X_pop, Some (X_popped (Some v)) -> taken := v :: !taken
      | _ -> ())
    (Event.ops_of h);
  List.sort compare !given = List.sort compare !taken

let exchanger_scenario ~id ~about ~window scripts =
  let n = Array.length scripts in
  {
    id;
    about;
    n_procs = n;
    expects_violation = false;
    heavy = false;
    run =
      (fun ?max_schedules ?preemption_bound () ->
        run_dpor ~name:id ~description:about ~n ~expect_violation:false
          ~make:(exchanger_instance ~window ~n)
          ~scripts ~check:exchange_check ?max_schedules ?preemption_bound ());
  }

(* ----- reclamation scenarios -----

   {!Aba_reclaim.Reclaim.Make} instantiated over simulator-backed paper
   objects: the free-stack LL/SC word and the Figure-4 announcement
   registers execute as schedulable steps.  Hazard and Epoch keep their
   internals on raw atomics, so for them the explorer certifies the
   operation-order interleavings only; Guarded is the step-level one. *)

type rop = R_alloc | R_retire | R_flush
type rres = R_node of int option | R_retired of int option | R_flushed

let reclaim_instance ~scheme ~llsc_builder ~capacity ~n () =
  let sim = Aba_sim.Sim.create ~n in
  let m = Aba_sim.Sim_mem.make sim in
  let module L = struct
    type t = Instances.llsc

    let create ~n ~init = Instances.llsc_with_mem ~init llsc_builder m ~n
    let ll (t : t) ~pid = t.Instances.ll pid
    let sc (t : t) ~pid v = t.Instances.sc pid v
  end in
  let module D = struct
    (* The register builders fix the initial value at 0; shifting the
       domain by [init] makes the fresh register read back [init] (-1,
       the empty announcement) and keeps stored values non-negative. *)
    type t = { a : Instances.aba; off : int }

    let create ~n ~init =
      { a = Instances.aba_with_mem Instances.aba_fig4 m ~n; off = init }

    let dwrite t ~pid v = t.a.Instances.dwrite pid (v - t.off)

    let dread t ~pid =
      let x, flag = t.a.Instances.dread pid in
      (x + t.off, flag)
  end in
  let module R = Aba_reclaim.Reclaim.Make (L) (D) in
  (* Guarded seeds its free stack through LL/SC — simulator steps, which
     only exist under a handler: run the construction as a solo op. *)
  let pr =
    Aba_sim.Sim.invoke sim 0 (fun () -> R.create ~slots:1 ~n ~capacity scheme)
  in
  Aba_sim.Sim.run_solo sim 0;
  let r = Option.get (Aba_sim.Sim.result pr) in
  let held = Array.make n [] in
  let apply pid op () =
    match op with
    | R_alloc -> (
        match R.alloc r ~pid with
        | Some i ->
            held.(pid) <- i :: held.(pid);
            R_node (Some i)
        | None -> R_node None)
    | R_retire -> (
        match held.(pid) with
        | [] -> R_retired None
        | i :: rest ->
            held.(pid) <- rest;
            R.retire r ~pid i;
            R_retired (Some i))
    | R_flush ->
        R.flush r ~pid;
        R_flushed
  in
  { Explore.driver = Aba_sim.Driver.create ~sim ~apply }

let rec remove_first x = function
  | [] -> []
  | y :: rest -> if x = y then rest else y :: remove_first x rest

(* Hold exclusivity: in response order, a node is never handed out while
   some process still holds it un-retired, and names stay in range. *)
let reclaim_check capacity h =
  let live = ref [] in
  let ok = ref true in
  List.iter
    (function
      | Event.Response (_, R_node (Some i)) ->
          if i < 0 || i >= capacity || List.mem i !live then ok := false
          else live := i :: !live
      | Event.Response (_, R_retired (Some i)) -> live := remove_first i !live
      | _ -> ())
    h;
  !ok

let reclaim_scenario ~id ~about ?(heavy = false) ~scheme ~llsc_builder
    ~capacity scripts =
  let n = Array.length scripts in
  {
    id;
    about;
    n_procs = n;
    expects_violation = false;
    heavy;
    run =
      (fun ?max_schedules ?preemption_bound () ->
        run_dpor ~name:id ~description:about ~n ~expect_violation:false
          ~make:(reclaim_instance ~scheme ~llsc_builder ~capacity ~n)
          ~scripts
          ~check:(reclaim_check capacity)
          ?max_schedules ?preemption_bound ());
  }

(* ----- ring queue scenario ----- *)

let ring_instance ~seq_bits ~capacity ~n () =
  let sim = Aba_sim.Sim.create ~n in
  let m = Aba_sim.Sim_mem.make sim in
  let module RQ = Aba_queue.Ring_queue.Make ((val m : Mem_intf.S)) in
  let q = RQ.create ~seq_bits ~capacity ~n () in
  let apply pid op () =
    match op with
    | Ring2_spec.Enqueue v -> Ring2_spec.Enqueued (RQ.try_enqueue q ~pid v)
    | Ring2_spec.Dequeue -> Ring2_spec.Dequeued (RQ.try_dequeue q ~pid)
  in
  { Explore.driver = Aba_sim.Driver.create ~sim ~apply }

let ring_scenario ~id ~about ?(heavy = false) ~seq_bits ~capacity scripts =
  let n = Array.length scripts in
  if capacity <> 2 then invalid_arg "ring_scenario: spec is capacity-2";
  {
    id;
    about;
    n_procs = n;
    expects_violation = false;
    heavy;
    run =
      (fun ?max_schedules ?preemption_bound () ->
        run_dpor ~name:id ~description:about ~n ~expect_violation:false
          ~make:(ring_instance ~seq_bits ~capacity ~n)
          ~scripts
          ~check:(Ring2_check.check_ok ~n)
          ?max_schedules ?preemption_bound ());
  }

(* ----- sharded service scenario -----

   The real {!Aba_apps.Service.Shard_router} functor over shards whose
   memory is simulator-backed: every head CAS and node read of every
   shard is a schedulable step, so the explorer drives genuine
   cross-shard interleavings through the router's steal path.  The
   router's own bookkeeping (depth estimates, steal counters) lives on
   plain OCaml state, so — like the hazard/epoch reclaim scenarios —
   this certifies the shard-step interleavings, not interleavings inside
   the bookkeeping itself. *)

type sop = S_push of int * int | S_pop of int  (* payloads carry the key *)
type sres = S_pushed of bool | S_popped of int option

(* A key routed to shard [s]: searched, not assumed — the splitmix64 hash
   is opaque here. *)
let service_key ~nshards s =
  let rec find k =
    if Aba_apps.Service.hash_key k mod nshards = s then k else find (k + 1)
  in
  find 0

let service_instance ~nshards ~capacity ~n () =
  let sim = Aba_sim.Sim.create ~n in
  let m = Aba_sim.Sim_mem.make sim in
  let module TS = Aba_apps.Treiber_stack.Make ((val m : Mem_intf.S)) in
  let module R = Aba_apps.Service.Shard_router (struct
    type t = TS.t

    let push = TS.push
    let pop = TS.pop
  end) in
  let shards =
    Array.init nshards (fun _ ->
        TS.create ~protection:(Aba_apps.Treiber_stack.Tagged 4) ~capacity ~n
          ~initial:[])
  in
  let r = R.create ~steal:true ~steal_batch:2 ~shards ~n () in
  let apply pid op () =
    match op with
    | S_push (key, v) -> S_pushed (R.push r ~pid ~key v)
    | S_pop key -> S_popped (R.pop r ~pid ~key)
  in
  { Explore.driver = Aba_sim.Driver.create ~sim ~apply }

(* The steal audit, schedule by schedule: values taken by pops must be a
   sub-multiset of values whose push succeeded — a steal relocates items
   between shards, it must never duplicate or invent one. *)
let service_check h =
  let pushed = ref [] and popped = ref [] in
  List.iter
    (fun (_, op, res) ->
      match (op, res) with
      | S_push (_, v), Some (S_pushed true) -> pushed := v :: !pushed
      | S_pop _, Some (S_popped (Some v)) -> popped := v :: !popped
      | _ -> ())
    (Event.ops_of h);
  let remaining =
    List.fold_left (fun acc v -> remove_first v acc) !pushed !popped
  in
  List.length remaining = List.length !pushed - List.length !popped

let service_scenario ~id ~about ?(heavy = false) ~nshards ~capacity scripts =
  let n = Array.length scripts in
  {
    id;
    about;
    n_procs = n;
    expects_violation = false;
    heavy;
    run =
      (fun ?max_schedules ?preemption_bound () ->
        run_dpor ~name:id ~description:about ~n ~expect_violation:false
          ~make:(service_instance ~nshards ~capacity ~n)
          ~scripts ~check:service_check ?max_schedules ?preemption_bound ());
  }

(* ----- announced-tags scenarios -----

   {!Aba_core.Announced_tags} over simulator memory at tag width 2 — the
   smallest width where the wraparound adversary fits in a handful of
   operations.  A three-node Treiber stack (0 -> 1 -> 2) hangs off the
   double-word head; a reader splits its pop into a protect step and a
   resume step so the explorer can park it on a stale witness while the
   writer drains the stack, pushes the old top back (wrapping the tag
   space), and drains again.  Every operation is single-attempt, so no
   interleaving can loop: a [Blocked] or [Contended] outcome is just a
   failed op.  The plain variant ([guard:false], folklore mod-4 tags)
   must exhibit a duplicate pop on some schedule; the guarded variant
   must survive every schedule of the same scripts. *)

type top = T_pop | T_push of int | T_protect | T_resume

type tres =
  | T_popped of int option
  | T_pushed of bool
  | T_witness of int * int
  | T_resumed of int option

let announced_instance ~guard ~n () =
  let sim = Aba_sim.Sim.create ~n in
  let m = Aba_sim.Sim_mem.make sim in
  let module M = (val m : Mem_intf.S) in
  let module G = Announced_tags.Make (M) in
  let head = G.create ~guard ~tag_bits:2 ~name:"ann" ~n ~init:0 () in
  let next = [| 1; 2; -1 |] in
  (* The reader's stalled witness: value, tag and successor captured at
     protect time, consumed by the resume step. *)
  let witness = ref (-1, 0, -1) in
  let pop pid =
    let v, g = G.protect head ~pid in
    if v = -1 then begin
      G.clear head ~pid;
      None
    end
    else begin
      let r =
        match
          G.guarded_cas head ~expect:v ~expect_tag:g ~update:next.(v)
        with
        | Announced_tags.Installed -> Some v
        | Announced_tags.Contended | Announced_tags.Blocked -> None
      in
      G.clear head ~pid;
      r
    end
  in
  let push v =
    let h, g = G.peek head in
    next.(v) <- h;
    G.guarded_cas head ~expect:h ~expect_tag:g ~update:v
    = Announced_tags.Installed
  in
  let apply pid op () =
    match op with
    | T_pop -> T_popped (pop pid)
    | T_push v -> T_pushed (push v)
    | T_protect ->
        let v, g = G.protect head ~pid in
        witness := (v, g, if v >= 0 then next.(v) else -1);
        T_witness (v, g)
    | T_resume ->
        let v, g, s = !witness in
        let r =
          if v = -1 then None
          else
            match G.guarded_cas head ~expect:v ~expect_tag:g ~update:s with
            | Announced_tags.Installed -> Some v
            | Announced_tags.Contended | Announced_tags.Blocked -> None
        in
        G.clear head ~pid;
        T_resumed r
  in
  { Explore.driver = Aba_sim.Driver.create ~sim ~apply }

(* Multiset audit: no value may be popped more often than it was pushed
   (three initial nodes plus the successful script pushes).  A duplicate
   pop is exactly the ABA corruption the tag protocol must prevent. *)
let announced_check h =
  let pushed = ref [ 0; 1; 2 ] and popped = ref [] in
  List.iter
    (fun (_, op, res) ->
      match (op, res) with
      | T_push v, Some (T_pushed true) -> pushed := v :: !pushed
      | T_pop, Some (T_popped (Some v)) -> popped := v :: !popped
      | T_resume, Some (T_resumed (Some v)) -> popped := v :: !popped
      | _ -> ())
    (Event.ops_of h);
  let count x l = List.length (List.filter (Int.equal x) l) in
  List.for_all (fun v -> count v !popped <= count v !pushed) !popped

let announced_scenario ~id ~about ~guard ~expects_violation scripts =
  let n = Array.length scripts in
  {
    id;
    about;
    n_procs = n;
    expects_violation;
    heavy = false;
    run =
      (fun ?max_schedules ?preemption_bound () ->
        run_dpor ~name:id ~description:about ~n
          ~expect_violation:expects_violation
          ~make:(announced_instance ~guard ~n)
          ~scripts ~check:announced_check ?max_schedules ?preemption_bound ());
  }

(* Writer: drain the stack, push the old top back (the fourth install —
   one full lap of the 2-bit tag space), drain again; the trailing pops
   are what surface a corrupt head as duplicate values. *)
let announced_scripts =
  [|
    [ T_pop; T_pop; T_pop; T_push 0; T_pop; T_pop ];
    [ T_protect; T_resume ];
  |]

(* ----- crash-recovery scenarios -----

   {!Aba_core.Detectable} under the explorer's crash moves: at every
   node any in-flight operation may be killed ({!Aba_sim.Sim.crash}
   erases its program state, every cell survives) and the process comes
   back running its recovery program.  The check needs the object's
   final state, which no surviving response carries, so [make] parks a
   solo reader closure in a ref and the leaf check invokes it as a
   zero-contention operation of pid 0 — sound because every process is
   idle at a leaf and the explorer rebuilds the instance from scratch
   before its next advance, discarding the probe's execution. *)

type cop = C_inc | C_recover
type cres = C_got of int | C_recovered of int option

let counter_instance ~naive ~n final () =
  let sim = Aba_sim.Sim.create ~n in
  let m = Aba_sim.Sim_mem.make sim in
  let module M = (val m : Mem_intf.S) in
  let module D = Detectable.Make (M) in
  let inc, recover, read =
    if naive then
      let c = D.Naive_counter.create ~name:"nctr" ~n () in
      ( (fun pid -> D.Naive_counter.inc c ~pid),
        (fun pid -> D.Naive_counter.recover c ~pid),
        fun () -> D.Naive_counter.read c )
    else
      let c = D.Counter.create ~name:"ctr" ~n () in
      ( (fun pid -> D.Counter.inc c ~pid),
        (fun pid -> D.Counter.recover c ~pid),
        fun () -> D.Counter.read c )
  in
  let apply pid op () =
    match op with
    | C_inc -> C_got (inc pid)
    | C_recover -> C_recovered (recover pid)
  in
  final :=
    (fun () ->
      let pr = Aba_sim.Sim.invoke sim 0 read in
      Aba_sim.Sim.run_solo sim 0;
      Option.get (Aba_sim.Sim.result pr));
  { Explore.driver = Aba_sim.Driver.create ~sim ~apply }

(* Exactly-once, leaf by leaf: the final counter value must equal the
   number of increments that took effect — completed [C_inc]s plus
   recoveries that resolved an in-flight one (the crashed [C_inc]'s own
   invoke stays unmatched, so the pair counts its effect exactly once).
   The naive mutant re-runs an increment that had already landed on some
   crash placement, overshooting by one. *)
let counter_check final h =
  let effective = ref 0 in
  List.iter
    (fun (_, op, res) ->
      match (op, res) with
      | C_inc, Some (C_got _) -> incr effective
      | C_recover, Some (C_recovered (Some _)) -> incr effective
      | _ -> ())
    (Event.ops_of h);
  !final () = !effective

let counter_crash_scenario ~id ~about ~naive ~expects_violation scripts =
  let n = Array.length scripts in
  let final = ref (fun () -> -1) in
  {
    id;
    about;
    n_procs = n;
    expects_violation;
    heavy = false;
    run =
      (fun ?max_schedules ?preemption_bound () ->
        run_dpor ~name:id ~description:about ~n
          ~expect_violation:expects_violation ~crash_bound:1
          ~on_crash:(fun _ -> [ C_recover ])
          ~make:(counter_instance ~naive ~n final)
          ~scripts
          ~check:(counter_check final)
          ?max_schedules ?preemption_bound ());
  }

type kop = K_push of int | K_pop | K_recover

type kres =
  | K_done
  | K_popped of int option
  | K_recovered of Detectable.stack_recovery

let stack_instance ~n final () =
  let sim = Aba_sim.Sim.create ~n in
  let m = Aba_sim.Sim_mem.make sim in
  let module M = (val m : Mem_intf.S) in
  let module D = Detectable.Make (M) in
  (* Tag_bits head: the cheapest protection in steps, keeping the crash
     interleaving space explorable; capacity covers the scripts, one
     recovery re-run, and the leaf probe's drain. *)
  let st =
    D.Stack.create ~protection:Detectable.Tag_bits ~name:"dstk" ~n
      ~capacity:8 ()
  in
  let apply pid op () =
    match op with
    | K_push v ->
        D.Stack.push st ~pid v;
        K_done
    | K_pop -> K_popped (D.Stack.pop st ~pid)
    | K_recover -> K_recovered (D.Stack.recover st ~pid)
  in
  final :=
    (fun () ->
      let drain () =
        let acc = ref [] in
        let rec go () =
          match D.Stack.pop st ~pid:0 with
          | Some v ->
              acc := v :: !acc;
              go ()
          | None -> !acc
        in
        go ()
      in
      let pr = Aba_sim.Sim.invoke sim 0 drain in
      Aba_sim.Sim.run_solo sim 0;
      Option.get (Aba_sim.Sim.result pr));
  { Explore.driver = Aba_sim.Driver.create ~sim ~apply }

(* Exactly-once over the whole stack: values popped by operations or
   recoveries plus values still in the stack at the leaf must equal, as
   a multiset, the values pushed by completed or recovered pushes. *)
let stack_check final h =
  let pushed = ref [] and popped = ref [] in
  List.iter
    (fun (_, op, res) ->
      match (op, res) with
      | K_push v, Some K_done -> pushed := v :: !pushed
      | K_pop, Some (K_popped (Some v)) -> popped := v :: !popped
      | K_recover, Some (K_recovered r) -> (
          match r with
          | Detectable.R_pushed v -> pushed := v :: !pushed
          | Detectable.R_popped (Some v) -> popped := v :: !popped
          | Detectable.R_popped None | Detectable.R_none -> ())
      | _ -> ())
    (Event.ops_of h);
  let remaining = !final () in
  List.sort compare (remaining @ !popped) = List.sort compare !pushed

let stack_crash_scenario ~id ~about scripts =
  let n = Array.length scripts in
  let final = ref (fun () -> []) in
  {
    id;
    about;
    n_procs = n;
    expects_violation = false;
    heavy = false;
    run =
      (fun ?max_schedules ?preemption_bound () ->
        run_dpor ~name:id ~description:about ~n ~expect_violation:false
          ~crash_bound:1
          ~on_crash:(fun _ -> [ K_recover ])
          ~make:(stack_instance ~n final)
          ~scripts
          ~check:(stack_check final)
          ?max_schedules ?preemption_bound ());
  }

(* ----- the suite ----- *)

let all () =
  [
    aba_scenario ~id:"fig4-wr"
      ~about:"Figure 4 register, writer vs reader, same-value writes"
      Instances.aba_fig4
      [| [ Aba_op.DWrite 1; Aba_op.DWrite 1 ]; [ Aba_op.DRead; Aba_op.DRead ] |];
    aba_scenario ~id:"fig4-3proc"
      ~about:"Figure 4 register, two writers and a reader (3 processes)"
      Instances.aba_fig4
      [| [ Aba_op.DWrite 1 ]; [ Aba_op.DRead; Aba_op.DRead ]; [ Aba_op.DWrite 1 ] |];
    aba_scenario ~id:"fig4-rand-seed42"
      ~about:"Figure 4 register, random workload from seed 42"
      Instances.aba_fig4
      (Workloads.random_aba_scripts
         (Random.State.make [| 42 |])
         ~n:2 ~ops_per_pid:2);
    aba_scenario ~id:"aba-unsafe-tag2"
      ~about:
        "mutation: mod-2 tag wraps under three same-value writes — must \
         still be caught after reduction" ~expects_violation:true
      (Instances.aba_bounded_tag ~tag_bound:2)
      [|
        [ Aba_op.DWrite 1; Aba_op.DWrite 1; Aba_op.DWrite 1 ];
        [ Aba_op.DRead; Aba_op.DRead ];
      |];
    llsc_scenario ~id:"fig3-llsc"
      ~about:"Figure 3 LL/SC from one bounded CAS, two contending processes"
      Instances.llsc_fig3
      [| [ Llsc_op.Ll; Llsc_op.Sc 1 ]; [ Llsc_op.Ll; Llsc_op.Sc 2; Llsc_op.Vl ] |];
    llsc_scenario ~id:"llsc-jp-3proc"
      ~about:"Jayanti–Petrovic LL/SC, three-way contention" ~heavy:true
      Instances.llsc_jp
      [|
        [ Llsc_op.Ll; Llsc_op.Sc 1 ];
        [ Llsc_op.Ll; Llsc_op.Sc 1 ];
        [ Llsc_op.Sc 2 ];
      |];
    aba_scenario ~id:"combining-fig4"
      ~about:"Figure 4 register behind the combining read cache"
      ~combining:true Instances.aba_fig4
      [| [ Aba_op.DWrite 1; Aba_op.DWrite 1 ]; [ Aba_op.DRead; Aba_op.DRead ] |];
    exchanger_scenario ~id:"elimination-slot"
      ~about:
        "one elimination slot (Slot codec protocol) under a push pair vs a \
         pop pair" ~window:2
      [| [ X_push 1; X_push 2 ]; [ X_pop; X_pop ] |];
    reclaim_scenario ~id:"hazard-reclaim"
      ~about:"hazard-pointer reclaimer, alloc/retire interleavings"
      ~scheme:Aba_reclaim.Reclaim.Hazard ~llsc_builder:Instances.llsc_native
      ~capacity:2
      [| [ R_alloc; R_retire; R_alloc ]; [ R_alloc; R_flush ] |];
    reclaim_scenario ~id:"epoch-reclaim"
      ~about:"epoch-based reclaimer, alloc/retire interleavings"
      ~scheme:Aba_reclaim.Reclaim.Epoch ~llsc_builder:Instances.llsc_native
      ~capacity:2
      [| [ R_alloc; R_retire; R_alloc ]; [ R_alloc; R_flush ] |];
    reclaim_scenario ~id:"guarded-reclaim"
      ~about:
        "guarded reclaimer: free stack through a simulated LL/SC word, \
         announcements through Figure-4 registers" ~heavy:true
      ~scheme:Aba_reclaim.Reclaim.Guarded ~llsc_builder:Instances.llsc_native
      ~capacity:1
      [| [ R_alloc; R_retire ]; [ R_alloc ] |];
    (let nshards = 2 in
     let k0 = service_key ~nshards 0 and k1 = service_key ~nshards 1 in
     service_scenario ~id:"service-2shard-steal"
       ~about:
         "2-shard stack router over simulated shards: a pusher keeps one \
          shard hot while a popper on the other shard's key forces the \
          bulk-steal path; stolen values must never duplicate"
       ~nshards ~capacity:3
       [| [ S_push (k0, 1); S_push (k0, 2) ]; [ S_pop k1; S_pop k1 ] |]);
    announced_scenario ~id:"announced-plain-wrap"
      ~about:
        "mutation: plain 2-bit tags on the double-word head — a stalled \
         pop's witness wraps around and some schedule double-pops"
      ~guard:false ~expects_violation:true announced_scripts;
    announced_scenario ~id:"announced-guarded-wrap"
      ~about:
        "announcement-guarded 2-bit tags survive every schedule of the \
         same wraparound scripts: crossings scan the slots and skip \
         announced tags" ~guard:true ~expects_violation:false
      announced_scripts;
    counter_crash_scenario ~id:"detectable-counter-crash"
      ~about:
        "detectable fetch-and-increment under one crash move per \
         schedule: recovery resolves the interrupted increment exactly \
         once at every crash placement" ~naive:false
      ~expects_violation:false
      [| [ C_inc ]; [ C_inc ] |];
    counter_crash_scenario ~id:"naive-counter-crash"
      ~about:
        "mutation: counter without provenance or ack handover — recovery \
         re-runs an increment that already landed when the crash falls \
         between its CAS and its Done write" ~naive:true
      ~expects_violation:true
      [| [ C_inc ]; [ C_inc ] |];
    stack_crash_scenario ~id:"detectable-stack-crash"
      ~about:
        "detectable Treiber stack (tagged head, per-(pid,seq) arena) \
         under one crash move per schedule: pushes and pops resolve \
         exactly once across every crash placement"
      [| [ K_push 1 ]; [ K_push 2; K_pop ] |];
    ring_scenario ~id:"ring-4bit"
      ~about:
        "bounded MPMC ring with 4-bit slot sequence tags, capacity 2, \
         enqueue pair vs dequeue pair" ~heavy:true ~seq_bits:4 ~capacity:2
      [|
        [ Ring2_spec.Enqueue 1; Ring2_spec.Enqueue 2 ];
        [ Ring2_spec.Dequeue; Ring2_spec.Dequeue ];
      |];
  ]

let names () = List.map (fun s -> s.id) (all ())
let find id = List.find_opt (fun s -> s.id = id) (all ())

let run_suite ?(smoke = false) ?max_schedules ?preemption_bound () =
  let scenarios =
    List.filter (fun s -> (not smoke) || not s.heavy) (all ())
  in
  List.map (fun s -> s.run ?max_schedules ?preemption_bound ()) scenarios

(* ----- JSON export ----- *)

let stats_to_json (s : Explore.dpor_stats) =
  let reduction_factor =
    match s.Explore.schedule_bound with
    | Some b when s.Explore.explored > 0 ->
        Json.Float (float_of_int b /. float_of_int s.Explore.explored)
    | _ -> Json.Null
  in
  Json.Obj
    [
      ("explored", Json.Int s.Explore.explored);
      ( "schedule_bound",
        match s.Explore.schedule_bound with
        | None -> Json.Null
        | Some b -> Json.Int b );
      ("reduction_factor", reduction_factor);
      ("sleep_set_prunes", Json.Int s.Explore.sleep_set_prunes);
      ("preemption_prunes", Json.Int s.Explore.preemption_prunes);
      ("races_detected", Json.Int s.Explore.races_detected);
      ("crashes_injected", Json.Int s.Explore.crashes_injected);
      ("max_depth_reached", Json.Int s.Explore.max_depth_reached);
      ("rebuilds", Json.Int s.Explore.rebuilds);
      ("actions_executed", Json.Int s.Explore.actions_executed);
      ("actions_replayed", Json.Int s.Explore.actions_replayed);
    ]

let report_to_json r =
  Json.Obj
    [
      ("name", Json.Str r.name);
      ("description", Json.Str r.description);
      ("n", Json.Int r.n);
      ("expect_violation", Json.Bool r.expect_violation);
      ("verdict", Json.Str r.verdict);
      ("passed", Json.Bool r.passed);
      ("schedules", Json.Int r.schedules);
      ( "violation_schedule",
        match r.violation_schedule with
        | None -> Json.Null
        | Some s -> Json.Arr (List.map (fun p -> Json.Int p) s) );
      ("stats", stats_to_json r.stats);
    ]

let suite_to_json reports =
  Json.Obj
    [
      ("suite", Json.Str "model-check");
      ("all_passed", Json.Bool (List.for_all (fun r -> r.passed) reports));
      ("scenarios", Json.Arr (List.map report_to_json reports));
    ]

(* ----- Invariants ----- *)

let keys_of = function Json.Obj kv -> List.map fst kv | _ -> []

let missing what expected j =
  List.filter_map
    (fun k ->
      if List.mem k (keys_of j) then None
      else Some (Printf.sprintf "%s missing %s" what k))
    expected

let report_violations r =
  let st = r.stats in
  let fail cond msg = if cond then [ r.name ^ ": " ^ msg ] else [] in
  missing r.name
    [
      "name"; "description"; "n"; "expect_violation"; "verdict"; "passed";
      "schedules"; "violation_schedule"; "stats";
    ]
    (report_to_json r)
  @ missing (r.name ^ " stats")
      [
        "explored"; "schedule_bound"; "reduction_factor"; "sleep_set_prunes";
        "preemption_prunes"; "races_detected"; "crashes_injected";
        "max_depth_reached"; "rebuilds"; "actions_executed";
        "actions_replayed";
      ]
      (stats_to_json st)
  @ fail (not r.passed) ("verdict " ^ r.verdict ^ " does not match")
  @ fail (st.Explore.explored <= 0) "nothing explored"
  @
  match st.Explore.schedule_bound with
  | Some b -> fail (st.Explore.explored > b) "explored exceeds bound"
  | None -> []

(* The named expectations: the DPOR reduction bites on Figure 4, each
   seeded mutant is caught with a schedule, the guarded and detectable
   variants hold, and the crash scenarios actually inject crashes. *)
let expectations =
  let verdict v r = r.verdict = v in
  let caught r = r.verdict = "violation" && r.violation_schedule <> None in
  let crashes r = r.stats.Explore.crashes_injected > 0 in
  [
    ( "fig4-3proc",
      "DPOR reduction did not bite",
      fun r ->
        verdict "ok" r
        &&
        match r.stats.Explore.schedule_bound with
        | Some b -> r.stats.Explore.explored < b
        | None -> false );
    ("aba-unsafe-tag2", "2-bit-tag ABA mutant not caught", caught);
    ("announced-plain-wrap", "plain tag wraparound not caught", caught);
    ("announced-guarded-wrap", "guarded tags failed", verdict "ok");
    ( "detectable-counter-crash",
      "detectable counter lost exactly-once or injected no crash",
      fun r -> verdict "ok" r && crashes r );
    ( "naive-counter-crash",
      "naive counter mutant not caught or injected no crash",
      fun r -> caught r && crashes r );
    ( "detectable-stack-crash",
      "detectable stack lost exactly-once or injected no crash",
      fun r -> verdict "ok" r && crashes r );
  ]

let suite_violations reports =
  let doc = suite_to_json reports in
  (if reports = [] then [ "suite emitted no scenarios" ] else [])
  @ (match doc with
    | Json.Obj kv when List.assoc_opt "suite" kv = Some (Json.Str "model-check")
      ->
        []
    | _ -> [ "suite name is not model-check" ])
  @ List.concat_map report_violations reports
  @ List.filter_map
      (fun (id, what, ok) ->
        match List.find_opt (fun r -> r.name = id) reports with
        | None -> Some (id ^ ": missing from the suite")
        | Some r -> if ok r then None else Some (id ^ ": " ^ what))
      expectations
