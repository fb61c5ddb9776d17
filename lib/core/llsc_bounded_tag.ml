(** A {e deliberately flawed} LL/SC/VL: Moir's tagged construction with the
    tag taken modulo [T] — i.e. on a bounded CAS object.

    Corollary 1 says a bounded, constant-time, single-object LL/SC cannot
    exist; this is what the naive attempt looks like: once [T] successful
    [SC]s occur between a process's [LL] and its [SC], the tag wraps, the
    CAS succeeds against a stale link, and {e two} SCs succeed in the same
    link window — exactly the behaviour the LL/SC specification forbids and
    the linearizability checker refutes (experiment E6's LL/SC face). *)

open Aba_primitives

module Make_with_bound (B : sig
  val tag_bound : int
end)
(M : Mem_intf.S) : Llsc_intf.S = struct
  let tag_bound =
    if B.tag_bound < 1 then invalid_arg "tag_bound must be >= 1"
    else B.tag_bound

  let algorithm_name =
    Printf.sprintf "moir-tag-mod-%d (1 bounded CAS, FLAWED)" tag_bound

  let initial_value = 0

  type tagged = { value : int; tag : int }

  type t = {
    init : int;
    x : tagged M.cas;
    link : tagged option array;
  }

  let show { value; tag } = Printf.sprintf "(%d,#%d)" value tag

  let create ?(value_bound = Bounded.int_range ~lo:(-1) ~hi:255)
      ?(init = initial_value) ?(padded = false) ?backoff:_ ~n () =
    let bound =
      Bounded.make
        ~describe:(fun () ->
          Printf.sprintf "(%s * tag<%d)" (Bounded.describe value_bound)
            tag_bound)
        (fun { value; tag } ->
          Bounded.mem value_bound value && 0 <= tag && tag < tag_bound)
    in
    {
      init;
      x = M.make_cas ~bound ~padded ~name:"X" ~show { value = init; tag = 0 };
      link = Array.make n None;
    }

  let ll t ~pid =
    let seen = M.cas_read t.x in
    t.link.(pid) <- Some seen;
    seen.value

  let link_of t pid =
    match t.link.(pid) with
    | Some l -> l
    | None -> { value = t.init; tag = 0 }

  let sc t ~pid y =
    let l = link_of t pid in
    M.cas t.x ~expect:l ~update:{ value = y; tag = (l.tag + 1) mod tag_bound }

  let vl t ~pid = M.cas_read t.x = link_of t pid

  let space _ = M.space ()
end

(** Default bound used by the experiments. *)
module Make (M : Mem_intf.S) : Llsc_intf.S =
  Make_with_bound
    (struct
      let tag_bound = 4
    end)
    (M)
