(** A {e deliberately flawed} ABA-detecting register: one bounded register
    with tags taken modulo [T].

    This is the folklore "tagging" technique (Introduction, [14, 24, 25,
    28, 29]) restricted to a bounded tag space.  Once a writer performs [T]
    writes between two reads of the same process, the tag wraps around and
    the reader misses the intervening writes — an undetected ABA.

    The implementation exists to be {e broken} by the experiments: the
    wraparound finder (E6) exhibits a concrete violating execution for
    every [T], and the covering adversary (E1) derives a clean/dirty
    confusion from it, illustrating why Theorem 1's bound cannot be beaten
    by clever tag encodings. *)

open Aba_primitives

module Make_with_bound (B : sig
  val tag_bound : int
end)
(M : Mem_intf.S) : Aba_register_intf.S = struct
  let tag_bound =
    if B.tag_bound < 1 then invalid_arg "tag_bound must be >= 1"
    else B.tag_bound

  let algorithm_name =
    Printf.sprintf "bounded-tag-%d (1 bounded register, FLAWED)" tag_bound

  let initial_value = -1

  type stamped = { value : int; writer : Pid.t; tag : int }

  type local = {
    mutable counter : int;
    mutable last : (Pid.t * int) option;
  }

  type t = { x : stamped option M.register; locals : local array; init : int }

  let show = function
    | None -> "_"
    | Some { value; writer; tag } ->
        Printf.sprintf "(%d,p%d,%d)" value writer tag

  let create ?(value_bound = Bounded.int_range ~lo:(-1) ~hi:255)
      ?(init = initial_value) ?(padded = false) ?backoff:_ ~n () =
    let bound =
      Bounded.make
        ~describe:(fun () ->
          Printf.sprintf "(%s * pid<%d * tag<%d) option"
            (Bounded.describe value_bound) n tag_bound)
        (function
          | None -> true
          | Some { value; writer; tag } ->
              Bounded.mem value_bound value
              && Pid.is_valid ~n writer
              && 0 <= tag && tag < tag_bound)
    in
    {
      x = M.make_register ~bound ~padded ~name:"X" ~show None;
      locals = Array.init n (fun _ -> { counter = 0; last = None });
      init;
    }

  let dwrite t ~pid x =
    let l = t.locals.(pid) in
    let tag = l.counter in
    l.counter <- (tag + 1) mod tag_bound;
    M.write t.x (Some { value = x; writer = pid; tag })

  let dread t ~pid =
    let l = t.locals.(pid) in
    match M.read t.x with
    | None -> (t.init, false)
    | Some { value; writer; tag } ->
        let stamp = Some (writer, tag) in
        let changed = stamp <> l.last in
        l.last <- stamp;
        (value, changed)

  let space _ = M.space ()
end

(** Default bound used by the experiments. *)
module Make (M : Mem_intf.S) : Aba_register_intf.S =
  Make_with_bound
    (struct
      let tag_bound = 4
    end)
    (M)
