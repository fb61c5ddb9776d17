(** Bounded value domains.

    The lower bounds of the paper (Theorem 1, Corollary 1) apply only when
    base objects are {e bounded}: each base object can store values from a
    finite domain, however large.  We make that hypothesis machine-checked:
    every simulated base object carries a domain, and writing a value outside
    the domain raises.  A domain combines a membership predicate with an
    (optional) cardinality, so experiments can report how many distinct
    register configurations are possible. *)

type 'a t

val mem : 'a t -> 'a -> bool
(** [mem d v] tests whether [v] belongs to domain [d]. *)

val size : 'a t -> int option
(** [size d] is the cardinality of [d] if finite and known, [None] for
    unbounded domains. *)

val describe : 'a t -> string
(** Human-readable description used in space-accounting tables. *)

val check : what:string -> 'a t -> 'a -> unit
(** [check ~what d v] raises [Invalid_argument] mentioning [what] if
    [not (mem d v)].  Used by the simulator to enforce boundedness. *)

(** {1 Constructors} *)

val make : ?size:int -> describe:(unit -> string) -> ('a -> bool) -> 'a t
(** [make ~describe mem] is the domain of the values satisfying [mem].  The
    description is rendered by [describe ()] each time it is read
    ({!describe}, or the message of a failed {!check}), not when the
    domain is built: simulated instances build their domains on every
    rebuild and read the descriptions only for space tables and errors. *)

val unbounded : describe:string -> 'a t
(** A domain accepting every value, with [size = None].  Base objects over
    an unbounded domain model the "unbounded tag" constructions that the
    paper uses to show the boundedness hypothesis is necessary. *)

val bool : bool t

val int_range : lo:int -> hi:int -> int t
(** Integers in [lo..hi] inclusive. *)

val int_mod : int -> int t
(** [int_mod m] is [int_range ~lo:0 ~hi:(m-1)]. *)

val option : 'a t -> 'a option t

val pair : 'a t -> 'b t -> ('a * 'b) t

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val bits : width:int -> int t
(** Bitmasks of [width] bits, i.e. integers in [0 .. 2^width - 1].  Used for
    the second component of the Figure 3 CAS object. *)
