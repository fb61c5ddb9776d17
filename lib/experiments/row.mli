(** Typed bench rows: the one record every bench part emits.

    A row is an ordered list of labelled metrics.  The same row is printed
    as a table line by {!print_table} and serialised as a JSON object by
    {!to_json}, so a part never writes a printer or an emitter of its own.
    The invariants CI used to assert over the emitted JSON are {!check}s
    over rows, run by every bench and [aba_lab] invocation. *)

type value = Str of string | Int of int | Float of float | Bool of bool
type t = (string * value) list

val percentiles : Aba_obs.Histogram.t -> t
(** [p50_ns; p90_ns; p99_ns; p999_ns] of a histogram. *)

val of_obs : ?tail:t -> Aba_obs.Obs.t -> t -> t list
(** [of_obs obs head] is one row per Obs kind with a non-empty histogram:
    [head @ [kind; count; retries] @ percentiles @ tail]. *)

val to_json : t -> Json.t
val to_string : t -> string

val print_table : t list -> unit
(** Column-aligned table, header from the first row's labels. *)

(** {1 Accessors}  Each raises [Invalid_argument] on a missing or
    mistyped label; {!all} and {!exists} report that as a violation. *)

val str : t -> string -> string
val int : t -> string -> int
val num : t -> string -> float
(** An [Int] or [Float] metric as a float. *)

val bool : t -> string -> bool

(** {1 Invariants} *)

type check = t list -> string list
(** The violations found in one part's rows; [[]] means it holds. *)

val all : string -> (t -> bool) -> check
(** Every row satisfies the predicate. *)

val exists : string -> (t -> bool) -> check
(** Some row satisfies the predicate. *)

val non_empty : check
val keys : string list -> check
(** Every row carries every label. *)

val monotone : check
(** [p50_ns <= p90_ns <= p99_ns <= p999_ns] on every row. *)

val values_are : ?where:(t -> bool) -> string -> string list -> check
(** The set of values of a string label (over the rows [where] selects)
    is exactly the given set. *)

val percentile_rows : string list -> check list
(** The checks every per-kind Obs table carries: rows present, the
    given labels, [count > 0], monotone percentiles. *)
