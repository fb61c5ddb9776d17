(** The [GetSeq] sequence-number pool of Figure 4 (lines 28–37).

    Each process owns one pool.  A call to [next] performs exactly one
    shared-memory read (of one announce-array entry, through the supplied
    callback) and returns a sequence number in [{0 .. 2n+1}] satisfying the
    freshness property of Claim 3: if at some point the main object holds
    [(., p, s)] while [A[q] = (p, s)], then [p] does not use [s] again until
    [A[q]] changes.

    The pool scans one announce entry per call (cursor), remembers which of
    its own numbers are announced ([na]), and delays reuse of returned
    numbers through a queue of length [n + 1] ([usedQ]); since at most
    [2n + 1] numbers are excluded, a free one always exists in the
    [2n + 2]-element pool.

    Figure 4 builds its ABA-detecting register on this, and the
    Jayanti–Petrovic-style LL/SC ({!Llsc_jp}) reuses it for its write
    tags — the paper notes Figure 4's idea comes from that construction. *)

open Aba_primitives

type t

exception Exhausted
(** Raised by {!next} when every number in the domain is excluded — can
    only happen when a [ceiling] below the safe [2n + 1] is forced (the
    ablation experiments do this on purpose). *)

val create : ?ceiling:int -> n:int -> unit -> t
(** [ceiling] defaults to [2n + 1], the smallest value for which {!next}
    can never raise. *)

val ceiling : t -> int
(** Largest sequence number the pool can return. *)

val next :
  t -> me:Pid.t -> read_announce:(int -> (Pid.t * int) option) -> int
(** [next pool ~me ~read_announce] — [read_announce c] must perform the
    (single) shared read of announce entry [c] and return its content.
    [next] itself allocates nothing: the exclusion bitmap and the [usedQ]
    ring are preallocated in the pool, which belongs to one process. *)
