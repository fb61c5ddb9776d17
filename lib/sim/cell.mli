(** Simulated atomic base objects.

    A cell is one base object of the simulated system: a read/write
    register, a (writable) CAS object, or an LL/SC/VL object.  Cell contents
    are universal values ({!Aba_primitives.Univ}); each typed wrapper in
    {!Sim_mem} owns the embedding.

    Cells render their value to a string ([show]); rendered values are what
    register configurations ([reg(C)] in Lemma 1) and signatures (Lemma 3)
    are built from, so they are stable across runs and replays. *)

open Aba_primitives

type kind = Register | Cas_obj | Writable_cas | Llsc_obj

type t = {
  id : int;  (** Unique within one simulation instance. *)
  name : string;
  kind : kind;
  mutable value : Univ.t;
  show : Univ.t -> string;
  check_domain : Univ.t -> unit;
  domain_desc : unit -> string;
      (** Renders the value domain, for space tables. *)
  mutable llsc_seq : int;  (** Successful-SC count, for LL/SC semantics. *)
  llsc_link : int array;
      (** Per pid: [llsc_seq] at its last LL, [0] before any.  Allocated
          for [Llsc_obj] cells only; empty for every other kind. *)
}

val make :
  id:int ->
  n:int ->
  name:string ->
  kind:kind ->
  show:(Univ.t -> string) ->
  check_domain:(Univ.t -> unit) ->
  domain_desc:(unit -> string) ->
  init:Univ.t ->
  t
(** [n] is the number of processes, sizing the link state of an
    [Llsc_obj] cell. *)

val is_register : t -> bool
(** True for plain read/write registers (the objects counted by
    Theorem 1(a)). *)

val same : t -> t -> bool
(** Identity of base objects — [id] equality.  Ids are unique within one
    simulation instance, so two steps of the same execution operate on the
    same base object iff their cells are [same].  This is the cell-identity
    half of the dependence relation {!Step.conflicts}. *)

val rendered_value : t -> string

val kind_name : kind -> string
