(** The bench part registry.

    A part is one measured workload: it runs under a {!config}, returns
    typed {!Row.t}s, and declares the invariants its rows must satisfy.
    [bench --part NAME] and [aba_lab NAME] both go through {!run}, so they
    print the same table; the bench's JSON document is built by
    {!document} from the same rows, and {!violations} is checked on every
    run, so a broken invariant fails the invocation. *)

type config = {
  domains : int;  (** domains of the fixed-width parts *)
  max_domains : int;  (** scalability-sweep upper bound; caps [domains] *)
  ops : int;  (** per-domain operations of a part's driving loop *)
  smoke : bool;  (** reduced grids *)
  crash_every : int;  (** crash period of the recovery part, in rounds *)
  slo_ns : int;  (** service SLO budget *)
  arrival_ns : int;  (** service mean inter-arrival per domain *)
}

val config : ?smoke:bool -> unit -> config
(** Defaults: 4 domains, sweep up to every core, 10000 ops.  [~smoke:true]
    is the CI size: 2 domains, sweep to 2, 500 ops, reduced grids. *)

type t = {
  name : string;  (** the [--part] / subcommand name *)
  section : string;  (** top-level key of the JSON document *)
  doc : string;
  smoke : bool;  (** run by [bench --smoke] *)
  run : config -> Row.t list;
  checks : Row.check list;
}

val all : t list
(** In JSON section order. *)

val find : string -> t option
val names : unit -> string list

val run : t -> config -> Row.t list
(** Run a part, print its heading and table, return its rows. *)

val violations : t -> Row.t list -> string list
(** Every failed invariant, prefixed with the part name. *)

val document : (t * Row.t list) list -> Json.t
(** [meta] (schema_version 8 and provenance) plus one array per section,
    in registry order; a section no part ran is an empty array. *)
