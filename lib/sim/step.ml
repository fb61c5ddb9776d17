open Aba_primitives

type t =
  | Read of Cell.t
  | Write of Cell.t * Univ.t
  | Cas of Cell.t * Univ.t * Univ.t
  | Ll of Cell.t
  | Sc of Cell.t * Univ.t
  | Vl of Cell.t

type outcome = Value of Univ.t | Bool of bool | Unit

let cell = function
  | Read c | Write (c, _) | Cas (c, _, _) | Ll c | Sc (c, _) | Vl c -> c

let is_write = function Write _ -> true | _ -> false
let is_cas = function Cas _ -> true | _ -> false

type access = Load | Store | Rmw

type footprint = { on : Cell.t; access : access }

(* [Ll] and [Vl] touch only the cell's value/sequence as readers: the
   per-pid link entry they maintain is private to the linking process, so
   no other process's outcome can depend on it.  Classifying them as
   [Load] is what lets two concurrent [Ll]s commute. *)
let footprint step =
  let access =
    match step with
    | Read _ | Ll _ | Vl _ -> Load
    | Write _ -> Store
    | Cas _ | Sc _ -> Rmw
  in
  { on = cell step; access }

let mutates step =
  match (footprint step).access with Load -> false | Store | Rmw -> true

(* The dependence relation of the DPOR engine: two steps of different
   processes commute unless they touch the same base object and at least
   one of them (potentially) mutates it.  A failed CAS/SC is a read at
   execution time, but whether it fails can depend on the order, so [Rmw]
   conservatively counts as mutating. *)
let conflicts a b =
  Cell.same a.on b.on && not (a.access = Load && b.access = Load)

let bad_kind step_name (c : Cell.t) =
  invalid_arg
    (Printf.sprintf "Step.execute: %s on %s %s" step_name
       (Cell.kind_name c.kind) c.name)

(* A pid that never linked counts as linked at sequence 0.  Only
   [Llsc_obj] cells carry link state; on any other cell every pid is in
   that never-linked case. *)
let link_valid (c : Cell.t) pid =
  if pid < Array.length c.llsc_link then c.llsc_link.(pid) = c.llsc_seq
  else c.llsc_seq = 0

let would_succeed ~pid step =
  match step with
  | Cas (c, expect, _) -> Some (Univ.equal c.Cell.value expect)
  | Sc (c, _) -> Some (link_valid c pid)
  | Read _ | Write _ | Ll _ | Vl _ -> None

let execute ~pid step =
  match step with
  | Read c -> (
      match c.Cell.kind with
      | Cell.Register | Cell.Cas_obj | Cell.Writable_cas -> Value c.value
      | Cell.Llsc_obj -> bad_kind "Read" c)
  | Write (c, v) -> (
      match c.Cell.kind with
      | Cell.Register | Cell.Writable_cas ->
          c.check_domain v;
          c.value <- v;
          Unit
      | Cell.Cas_obj | Cell.Llsc_obj -> bad_kind "Write" c)
  | Cas (c, expect, update) -> (
      match c.Cell.kind with
      | Cell.Cas_obj | Cell.Writable_cas ->
          if Univ.equal c.value expect then begin
            c.check_domain update;
            c.value <- update;
            Bool true
          end
          else Bool false
      | Cell.Register | Cell.Llsc_obj -> bad_kind "CAS" c)
  | Ll c -> (
      match c.Cell.kind with
      | Cell.Llsc_obj ->
          c.llsc_link.(pid) <- c.llsc_seq;
          Value c.value
      | Cell.Register | Cell.Cas_obj | Cell.Writable_cas -> bad_kind "LL" c)
  | Sc (c, v) -> (
      match c.Cell.kind with
      | Cell.Llsc_obj ->
          if link_valid c pid then begin
            c.check_domain v;
            c.value <- v;
            c.llsc_seq <- c.llsc_seq + 1;
            Bool true
          end
          else Bool false
      | Cell.Register | Cell.Cas_obj | Cell.Writable_cas -> bad_kind "SC" c)
  | Vl c -> (
      match c.Cell.kind with
      | Cell.Llsc_obj -> Bool (link_valid c pid)
      | Cell.Register | Cell.Cas_obj | Cell.Writable_cas -> bad_kind "VL" c)

let describe step =
  let name c = c.Cell.name in
  match step with
  | Read c -> Printf.sprintf "read %s" (name c)
  | Write (c, v) -> Printf.sprintf "write %s := %s" (name c) (c.Cell.show v)
  | Cas (c, e, u) ->
      Printf.sprintf "cas %s (%s -> %s)" (name c) (c.Cell.show e)
        (c.Cell.show u)
  | Ll c -> Printf.sprintf "ll %s" (name c)
  | Sc (c, v) -> Printf.sprintf "sc %s := %s" (name c) (c.Cell.show v)
  | Vl c -> Printf.sprintf "vl %s" (name c)
