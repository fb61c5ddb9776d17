(** The deterministic shared-memory simulator.

    This module realizes the execution model of the paper's Preliminaries
    section.  A simulation holds [n] processes and a set of base objects
    (cells).  Each process is either {e idle} (no pending method call) or
    suspended {e poised} at its next shared-memory step.  The driver:

    - [invoke]s a method call on an idle process — the call's local
      computation runs immediately up to (but excluding) its first
      shared-memory step, since only shared-memory operations count as
      steps;
    - [step]s a poised process — exactly one atomic base-object operation
      executes, then local computation continues to the next step or to the
      method's return.

    A {e schedule} is thus a sequence of invocations and process IDs, and
    [Exec(C, sigma)] / [Conf(C, sigma)] from the paper correspond to calling
    [step] in the order given by [sigma].  Configurations are inspectable:
    poised steps (for covering sets), register configurations [reg(C)]
    (Lemma 1) and signatures (Lemma 3) are all exposed.

    Method calls are arbitrary OCaml thunks whose shared-memory accesses go
    through {!Sim_mem}; suspension uses OCaml effect handlers, so algorithms
    are written in direct style, exactly as the paper's pseudo-code. *)

open Aba_primitives

type t

exception Process_crashed of Pid.t * exn
(** Raised by [step] when the process's method call raised; the original
    exception is preserved. *)

val create : n:int -> t
(** A simulation with processes [0 .. n-1], all idle, and no cells. *)

val n : t -> int

(** {1 Driving processes} *)

type 'a promise
(** The eventual result of an invoked method call. *)

val invoke : t -> Pid.t -> (unit -> 'a) -> 'a promise
(** [invoke sim p call] begins method call [call] on idle process [p],
    running it up to its first shared-memory step.  Raises
    [Invalid_argument] if [p] is not idle.  If [call] performs no
    shared-memory step at all it completes immediately. *)

val step : t -> Pid.t -> unit
(** Execute the poised step of [p], then run [p]'s local computation to its
    next step or return.  Raises [Invalid_argument] if [p] is idle. *)

val crash : t -> Pid.t -> unit
(** Erase [p]'s program state: the poised step and suspended continuation
    are dropped and [p] returns to idle, while all cells survive — the
    crash-recovery model of detectable objects (shared memory persists,
    private state is lost).  The in-flight call's promise is never
    fulfilled; whether its last shared step took effect is exactly what a
    detectable recovery must determine.  Raises [Invalid_argument] if [p]
    is idle (there is nothing to crash). *)

val discard : t -> unit
(** Release the suspended method calls of a simulation that is about to be
    dropped: every poised process's continuation is discontinued, which
    frees its fiber stack (a continuation that is never resumed keeps its
    stack for good).  The processes end up crashed; use the simulation no
    further. *)

val run_schedule : t -> Pid.t list -> unit
(** [run_schedule sim sigma] steps processes in the order of [sigma]. *)

val result : 'a promise -> 'a option
(** [Some r] once the call has returned. *)

val steps_of : 'a promise -> int
(** Shared-memory steps the call has executed so far (its step
    complexity once completed). *)

(** {1 Inspecting configurations} *)

val is_idle : t -> Pid.t -> bool

val quiescent : t -> bool
(** All processes idle (the paper's quiescence). *)

val poised : t -> Pid.t -> Step.t option
(** The step [p] is poised to execute, or [None] if idle. *)

val run_solo : ?max_steps:int -> t -> Pid.t -> unit
(** Step [p] repeatedly until it is idle — the [p]-only schedules of
    nondeterministic solo-termination.  Raises [Failure] if the call does
    not finish within [max_steps] (default 100_000) steps. *)

val cells : t -> Cell.t list
(** All base objects, in creation order. *)

val registers : t -> Cell.t list
(** The cells that are plain read/write registers. *)

val reg_config : t -> string list
(** [reg(C)]: the rendered values of all cells in creation order. *)

val signature : t -> string
(** The Lemma 3 signature of the current configuration: every cell's value
    plus every process's poised step (or idleness), rendered stably. *)

val total_steps : t -> int
(** Shared-memory steps executed since creation. *)

val steps_by : t -> Pid.t -> int

(** {1 Tracing} *)

type trace_entry = { index : int; pid : Pid.t; descr : string }

val set_recording : t -> bool -> unit
(** Off by default.  When on, every executed step appends a {!trace_entry}. *)

val trace : t -> trace_entry list
(** Recorded steps, oldest first. *)

val clear_trace : t -> unit

(** {1 Internal — used by Sim_mem} *)

val perform_step : Step.t -> Step.outcome
(** Performs the step effect; must be called from within an invoked method
    call.  The scheduler suspends the process poised at this step and
    executes it when the process is next scheduled. *)

val register_cell :
  t ->
  name:string ->
  kind:Cell.kind ->
  show:(Univ.t -> string) ->
  check_domain:(Univ.t -> unit) ->
  domain_desc:(unit -> string) ->
  init:Univ.t ->
  Cell.t
