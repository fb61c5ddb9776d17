open Aba_primitives

type kind = Register | Cas_obj | Writable_cas | Llsc_obj

type t = {
  id : int;
  name : string;
  kind : kind;
  mutable value : Univ.t;
  show : Univ.t -> string;
  check_domain : Univ.t -> unit;
  domain_desc : unit -> string;
  mutable llsc_seq : int;
  llsc_link : int array;
}

let make ~id ~n ~name ~kind ~show ~check_domain ~domain_desc ~init =
  check_domain init;
  {
    id;
    name;
    kind;
    value = init;
    show;
    check_domain;
    domain_desc;
    llsc_seq = 0;
    llsc_link = (match kind with Llsc_obj -> Array.make n 0 | _ -> [||]);
  }

let is_register c = c.kind = Register
let same a b = a.id = b.id
let rendered_value c = c.show c.value

let kind_name = function
  | Register -> "register"
  | Cas_obj -> "CAS"
  | Writable_cas -> "writable CAS"
  | Llsc_obj -> "LL/SC/VL"
