(** Bounded schedule exploration (stateless model checking).

    Because the algorithms are deterministic and the simulator replayable, a
    schedule prefix — a sequence of process IDs — determines a configuration
    exactly.  Two explorers enumerate the schedules of a fixed workload:

    - {!exhaustive}, the naive oracle: depth-first over {e all}
      interleavings, rebuilding each node's configuration by replaying its
      prefix against a fresh instance;
    - {!dpor}, dynamic partial-order reduction (Flanagan–Godefroid 2005):
      depth-first over a {e representative subset} — per-step footprints
      ({!Step.footprint}) decide which reorderings can matter, reversible
      races schedule backtrack points, sleep sets prune schedules whose
      difference from an explored one is a commutation.  It runs on a
      single incrementally re-executed instance ({!Driver.Incremental})
      instead of replaying the whole prefix per node.

    An action of process [p] means: if [p] is idle, lazily invoke its next
    scripted operation and run to its first shared-memory step; then execute
    one step.  Operations that take zero shared-memory steps complete within
    the action.  Histories are built with invoke-at-first-step and
    respond-at-last-step, the tightest sound real-time order, so a workload
    that passes [check] on every leaf is correct under {e every} schedule of
    that workload (at this size).

    This realizes, in the small, the quantification over all schedules used
    throughout Section 2. *)

open Aba_primitives

type ('op, 'res) instance = { driver : ('op, 'res) Driver.t }

type ('op, 'res) outcome =
  | Ok of int  (** number of complete schedules explored *)
  | Violation of Pid.t list * ('op, 'res) Event.history
      (** offending schedule and its history *)
  | Budget_exhausted of int  (** schedules explored before giving up *)

val exhaustive :
  make:(unit -> ('op, 'res) instance) ->
  scripts:'op list array ->
  check:(('op, 'res) Event.history -> bool) ->
  ?max_schedules:int ->
  ?max_depth:int ->
  unit ->
  ('op, 'res) outcome
(** [exhaustive ~make ~scripts ~check ()] replays every interleaving of the
    scripted operations.  [make] must build a fresh, deterministic instance
    (same initial configuration every time).  [check] is applied to the
    complete history at every leaf; the first failing leaf aborts the search
    with its schedule.  [max_schedules] (default [2_000_000]) bounds the
    number of leaves visited; a branch longer than [max_depth] (default
    [10_000]) actions raises [Failure] — it indicates a livelocked
    implementation. *)

(** {1 Dynamic partial-order reduction} *)

type dpor_stats = {
  explored : int;  (** complete schedules visited *)
  schedule_bound : int option;
      (** multinomial bound from a solo reference run; [None] on overflow.
          Exact for workloads whose per-process action counts are
          schedule-independent (no retry loops); a reference otherwise. *)
  sleep_set_prunes : int;
      (** nodes cut because every enabled process was sleeping *)
  preemption_prunes : int;  (** children cut by the preemption bound *)
  races_detected : int;  (** reversible races that scheduled a backtrack *)
  crashes_injected : int;
      (** crash moves executed across the whole search (0 without
          [crash_bound]) *)
  max_depth_reached : int;
  rebuilds : int;  (** fresh instances built on backtrack *)
  actions_executed : int;  (** forward actions *)
  actions_replayed : int;  (** prefix actions re-executed on backtrack *)
}

type ('op, 'res) dpor_result = {
  verdict : ('op, 'res) outcome;
  stats : dpor_stats;
}

val dpor :
  make:(unit -> ('op, 'res) instance) ->
  scripts:'op list array ->
  check:(('op, 'res) Event.history -> bool) ->
  ?max_schedules:int ->
  ?max_depth:int ->
  ?preemption_bound:int ->
  ?crash_bound:int ->
  ?on_crash:(Pid.t -> 'op list) ->
  unit ->
  ('op, 'res) dpor_result
(** [dpor ~make ~scripts ~check ()] explores a reduced but sufficient set
    of schedules: for every maximal schedule of the workload it visits one
    member of its Mazurkiewicz trace (schedules equal up to commuting
    independent steps), so any [check] that is invariant across a trace —
    in particular the outcome-based flaw detectors used by the scenario
    suite — fails here iff it fails somewhere under {!exhaustive}.

    After each executed step the engine scans the path backwards under the
    happens-before clocks: an earlier conflicting step not already ordered
    before the new one is a reversible race, and its reversal is scheduled
    by inserting a backtrack point before the earlier step.  Sleep sets
    carry fully-explored moves into sibling subtrees and wake them only on
    a conflicting footprint, pruning commuted duplicates.

    [preemption_bound] limits involuntary context switches per schedule
    (a process switched while still enabled); it makes the search a
    bounded heuristic — [Ok] then certifies only the bounded schedule
    space.  Other parameters are as in {!exhaustive}.  [Found]/[Stop]
    never escape; verdicts are returned in [verdict] together with the
    per-run reduction statistics.

    [crash_bound] (default 0) additionally explores {e crash moves}: at
    every node, each process with an in-flight operation may crash —
    {!Sim.crash} erases its program state, shared cells survive, and
    [on_crash p] (default none) queues its recovery program — up to
    [crash_bound] crashes per schedule.  Crash children are explored
    unconditionally (they never enter backtrack or sleep sets — a sound
    over-approximation), so [Ok] certifies the workload under every
    explored crash placement; in a violating schedule the crash moves
    appear as negative path entries
    ({!Driver.Incremental.pid_of_move}).  With a positive [crash_bound]
    the crash-free multinomial no longer bounds the search, so
    [schedule_bound] is reported as [None].

    Process sets are machine-word bitmasks: raises [Invalid_argument] for
    more than [Sys.int_size] processes. *)

(** {1 Schedule counting} *)

val count_schedules : n_actions:int array -> int
(** Number of interleavings of the given per-process action counts
    (multinomial coefficient) — useful to size workloads before exploring.
    Saturates at [max_int] when the true count overflows. *)

val count_schedules_opt : n_actions:int array -> int option
(** As {!count_schedules}, but [None] instead of saturation on overflow —
    use when the caller must distinguish "huge" from [max_int]. *)
