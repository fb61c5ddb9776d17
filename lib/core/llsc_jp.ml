(** Jayanti–Petrovic / Anderson–Moir-style LL/SC/VL from one bounded CAS
    object plus [n] bounded registers, with {e constant} step complexity
    ([2], [15]).

    This is the other optimal point on Corollary 1's tradeoff curve:
    Figure 3 spends 1 object and [O(n)] steps, this construction spends
    [n + 1] objects and [O(1)] steps — both have time–space product
    [Theta(n)], which the corollary proves unavoidable.

    The machinery is the one the paper says Figure 4 borrows from [15]:
    the CAS object [X] holds a triple [(x, p, s)] tagged with the writer and
    a sequence number from {!Seq_pool}; each process announces in [A[q]] the
    [(p, s)] pair of the triple its link refers to.  The announcement blocks
    [p] from reusing [s], so a triple observed equal to the link certifies
    that no successful [SC] intervened — CAS on [X] cannot suffer an ABA.

    - [ll]: read [X]; announce; re-read [X].  If the two reads agree the
      link is armed; otherwise some [SC] linearized during the [ll], and the
      local flag [b] poisons the link (the [ll] linearizes at its first
      read).  3 steps.
    - [sc y]: fail if [b]; else pick a fresh tag (one announce read) and
      attempt [CAS(link, (y, self, tag))].  2 steps.
    - [vl]: fail if [b]; else one read of [X] compared against the link.
      1 step. *)

open Aba_primitives

module Make (M : Mem_intf.S) : Llsc_intf.S = struct
  let algorithm_name = "jayanti-petrovic (1 CAS + n registers, O(1) steps)"
  let initial_value = 0

  type xval = { value : int; writer : Pid.t; seq : int }
  type announcement = (Pid.t * int) option

  type local = {
    mutable b : bool;
    mutable link : xval option;
    pool : Seq_pool.t;
  }

  type t = {
    init : int;
    x : xval option M.cas;
    announce : announcement M.register array;
    locals : local array;
  }

  let show_x = function
    | None -> "_"
    | Some { value; writer; seq } ->
        Printf.sprintf "(%d,p%d,%d)" value writer seq

  let show_a = function
    | None -> "_"
    | Some (p, s) -> Printf.sprintf "(p%d,%d)" p s

  let create ?(value_bound = Bounded.int_range ~lo:(-1) ~hi:255)
      ?(init = initial_value) ?(padded = false) ?backoff:_ ~n () =
    let seq_ceiling = (2 * n) + 1 in
    let x_bound =
      Bounded.make
        ~describe:(fun () ->
          Printf.sprintf "(%s * pid<%d * seq<=%d) option"
            (Bounded.describe value_bound) n seq_ceiling)
        (function
          | None -> true
          | Some { value; writer; seq } ->
              Bounded.mem value_bound value
              && Pid.is_valid ~n writer
              && 0 <= seq && seq <= seq_ceiling)
    in
    let a_bound =
      Bounded.make
        ~describe:(fun () ->
          Printf.sprintf "(pid<%d * seq<=%d) option" n seq_ceiling)
        (function
          | None -> true
          | Some (p, s) -> Pid.is_valid ~n p && 0 <= s && s <= seq_ceiling)
    in
    {
      init;
      x = M.make_cas ~bound:x_bound ~padded ~name:"X" ~show:show_x None;
      announce =
        Array.init n (fun q ->
            M.make_register ~bound:a_bound ~padded
              ~name:("A[" ^ string_of_int q ^ "]")
              ~show:show_a None);
      locals =
        Array.init n (fun _ ->
            { b = false; link = None; pool = Seq_pool.create ~n () });
    }

  let key = function
    | None -> None
    | Some { writer; seq; _ } -> Some (writer, seq)

  let value_of t = function None -> t.init | Some { value; _ } -> value

  let ll t ~pid:q =
    let l = t.locals.(q) in
    let xv = M.cas_read t.x in
    M.write t.announce.(q) (key xv);
    let xv' = M.cas_read t.x in
    l.link <- xv;
    (* If [X] changed between the two reads, a successful SC linearized
       after this LL's linearization point (the first read): poison the
       link so the next SC/VL correctly fails. *)
    l.b <- xv <> xv';
    value_of t xv

  let sc t ~pid:q y =
    let l = t.locals.(q) in
    if l.b then false
    else begin
      let s =
        Seq_pool.next l.pool ~me:q ~read_announce:(fun c ->
            M.read t.announce.(c))
      in
      M.cas t.x ~expect:l.link ~update:(Some { value = y; writer = q; seq = s })
    end

  let vl t ~pid:q =
    let l = t.locals.(q) in
    if l.b then false else M.cas_read t.x = l.link

  let space _ = M.space ()
end
