open Aba_primitives

type _ Effect.t += Do_step : Step.t -> Step.outcome Effect.t

type proc_state =
  | Idle
  | Poised of Step.t * (Step.outcome, unit) Effect.Deep.continuation
  | Crashed of exn

type proc = {
  pid : Pid.t;
  mutable state : proc_state;
  mutable steps : int;  (** total steps by this process *)
  mutable call_steps : int ref;  (** counter of the current call's promise *)
}

type trace_entry = { index : int; pid : Pid.t; descr : string }

type t = {
  n : int;
  procs : proc array;
  handlers : (unit, unit) Effect.Deep.handler array;
      (** per process, built once: installed by every [invoke] *)
  mutable cell_list : Cell.t list;  (** reversed creation order *)
  mutable next_cell_id : int;
  mutable total_steps : int;
  mutable recording : bool;
  mutable trace_rev : trace_entry list;
}

exception Process_crashed of Pid.t * exn

type 'a promise = { mutable value : 'a option; counter : int ref }

(* The step handler of process [pr].  A method call runs under it from
   its invocation up to its first shared-memory effect, its return, or an
   exception.  The handler stays installed in the captured continuation,
   so [step] resumes a poised process directly and the same handler
   catches its next effect: one fiber per call, not per step, and one
   handler per process, not per call. *)
let handler pr : (unit, unit) Effect.Deep.handler =
  {
    retc = Fun.id;
    exnc = (fun e -> pr.state <- Crashed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Do_step s ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                pr.state <- Poised (s, k))
        | _ -> None);
  }

let create ~n =
  if n <= 0 then invalid_arg "Sim.create: n must be positive";
  let procs =
    Array.init n (fun pid ->
        { pid; state = Idle; steps = 0; call_steps = ref 0 })
  in
  {
    n;
    procs;
    handlers = Array.map handler procs;
    cell_list = [];
    next_cell_id = 0;
    total_steps = 0;
    recording = false;
    trace_rev = [];
  }

let n sim = sim.n

let proc sim p =
  Pid.check ~n:sim.n p;
  sim.procs.(p)

let invoke sim p (call : unit -> 'a) : 'a promise =
  let pr = proc sim p in
  (match pr.state with
  | Idle -> ()
  | Poised _ ->
      invalid_arg (Printf.sprintf "Sim.invoke: process %d is not idle" p)
  | Crashed e -> raise (Process_crashed (p, e)));
  let promise = { value = None; counter = ref 0 } in
  pr.call_steps <- promise.counter;
  Effect.Deep.match_with
    (fun () -> promise.value <- Some (call ()))
    () sim.handlers.(p);
  (match pr.state with Crashed e -> raise (Process_crashed (p, e)) | _ -> ());
  promise

let step sim p =
  let pr = proc sim p in
  match pr.state with
  | Idle -> invalid_arg (Printf.sprintf "Sim.step: process %d is idle" p)
  | Crashed e -> raise (Process_crashed (p, e))
  | Poised (s, k) ->
      let outcome =
        (* An illegal step (wrong object kind, out-of-domain value) crashes
           the process rather than the scheduler. *)
        match Step.execute ~pid:p s with
        | outcome -> outcome
        | exception e ->
            pr.state <- Crashed e;
            raise (Process_crashed (p, e))
      in
      pr.steps <- pr.steps + 1;
      incr pr.call_steps;
      sim.total_steps <- sim.total_steps + 1;
      if sim.recording then
        sim.trace_rev <-
          { index = sim.total_steps; pid = p; descr = Step.describe s }
          :: sim.trace_rev;
      pr.state <- Idle;
      (* overwritten if the continuation suspends again *)
      Effect.Deep.continue k outcome;
      (match pr.state with
      | Crashed e -> raise (Process_crashed (p, e))
      | Idle | Poised _ -> ())

(* A crash erases the process's program state — the poised step and the
   suspended continuation are simply dropped (discontinuing it would run
   the method's exception handlers, which a crashed process never gets to
   do; the price is that the dropped continuation's fiber stack is never
   reclaimed) — while every cell
   registered with the simulator survives untouched.  The pending call's
   promise is never fulfilled: the operation neither returned nor, as far
   as the crashed process can tell, certainly took effect.  That is the
   crash-recovery model of detectable objects (shared memory persists,
   private state is lost). *)
let crash sim p =
  let pr = proc sim p in
  match pr.state with
  | Idle -> invalid_arg (Printf.sprintf "Sim.crash: process %d is idle" p)
  | Crashed e -> raise (Process_crashed (p, e))
  | Poised (_, _) ->
      pr.state <- Idle;
      pr.call_steps <- ref 0;
      if sim.recording then
        sim.trace_rev <-
          { index = sim.total_steps; pid = p; descr = "crash" }
          :: sim.trace_rev

exception Discarded

(* An effect continuation that is never resumed keeps its fiber stack for
   good, so a simulation about to be dropped unwinds its poised calls
   first.  Nothing observes the simulation afterwards, so running their
   exception handlers is harmless; a step one of them performs while
   unwinding only suspends it again. *)
let discard sim =
  Array.iter
    (fun pr ->
      match pr.state with
      | Poised (_, k) -> Effect.Deep.discontinue k Discarded
      | Idle | Crashed _ -> ())
    sim.procs

let run_schedule sim sigma = List.iter (step sim) sigma
let result promise = promise.value
let steps_of promise = !(promise.counter)

let is_idle sim p =
  match (proc sim p).state with
  | Idle -> true
  | Poised _ | Crashed _ -> false

let quiescent sim = Array.for_all (fun pr -> pr.state = Idle) sim.procs

let poised sim p =
  match (proc sim p).state with
  | Idle -> None
  | Poised (s, _) -> Some s
  | Crashed e -> raise (Process_crashed (p, e))

let run_solo ?(max_steps = 100_000) sim p =
  let rec go budget =
    if is_idle sim p then ()
    else if budget = 0 then
      failwith
        (Printf.sprintf "Sim.run_solo: process %d did not finish within %d steps"
           p max_steps)
    else begin
      step sim p;
      go (budget - 1)
    end
  in
  go max_steps

let cells sim = List.rev sim.cell_list
let registers sim = List.filter Cell.is_register (cells sim)
let reg_config sim = List.map Cell.rendered_value (cells sim)

let signature sim =
  let buf = Buffer.create 128 in
  List.iter
    (fun c ->
      Buffer.add_string buf c.Cell.name;
      Buffer.add_char buf '=';
      Buffer.add_string buf (Cell.rendered_value c);
      Buffer.add_char buf ';')
    (cells sim);
  Array.iter
    (fun pr ->
      Buffer.add_string buf
        (match pr.state with
        | Idle -> "idle"
        | Poised (s, _) -> Step.describe s
        | Crashed _ -> "crashed");
      Buffer.add_char buf '|')
    sim.procs;
  Buffer.contents buf

let total_steps sim = sim.total_steps
let steps_by sim p = (proc sim p).steps
let set_recording sim b = sim.recording <- b
let trace sim = List.rev sim.trace_rev
let clear_trace sim = sim.trace_rev <- []

let register_cell sim ~name ~kind ~show ~check_domain ~domain_desc ~init =
  let id = sim.next_cell_id in
  sim.next_cell_id <- id + 1;
  let c =
    Cell.make ~id ~n:sim.n ~name ~kind ~show ~check_domain ~domain_desc ~init
  in
  sim.cell_list <- c :: sim.cell_list;
  c

(* Exposed to Sim_mem through a separate module below; the effect itself is
   the only channel between algorithm code and the scheduler. *)
let perform_step (s : Step.t) : Step.outcome = Effect.perform (Do_step s)
