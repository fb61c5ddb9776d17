(** Figure 4: a multi-writer ABA-detecting register from [n + 1] bounded
    registers with constant step complexity (Theorem 3).

    Shared state:
    - register [X] holding a triple [(x, p, s)] — the stored value, the
      writing process, and a sequence number [s] in [{0 .. 2n+1}];
    - an announce array [A[0 .. n-1]] where only process [q] writes [A[q]];
      [A[q]] holds the pair [(p, s)] that [q] last observed in [X].

    To [DWrite x], process [p] picks a sequence number with [GetSeq] (one
    shared read of an announce entry) and writes [(x, p, s)] to [X] — two
    shared steps.  [GetSeq] guarantees the key freshness property (Claim 3):
    if at some point [X = (., p, s)] and [A[q] = (p, s)], then [p] does not
    use [s] again until [A[q]] changes.  It does so by scanning one announce
    entry per call (cursor [c]), remembering in [na] which of its own
    sequence numbers are currently announced, and cycling candidates through
    a queue [usedQ] of length [n + 1] so a number is never reused within [n]
    consecutive writes.  The pool [{0 .. 2n+1}] always contains a free
    number since [|na| <= n] and [|usedQ| = n + 1].

    To [DRead], process [q] reads [X], saves its previous announcement,
    announces the pair just read, and reads [X] again — four shared steps.
    The flag logic is exactly lines 42–49 of the paper; the local Boolean
    [b] carries "a DWrite linearized after my previous DRead's linearization
    point" into the next DRead. *)

open Aba_primitives

(** The sequence-number domain is [{0 .. Ceiling.seq_ceiling ~n}]; Figure 4
    uses [2n + 1], which the GetSeq counting argument needs.  The ablation
    experiments instantiate smaller ceilings to watch the algorithm break
    (pool exhaustion or an undetected write). *)
module Make_with_ceiling (Ceiling : sig
  val seq_ceiling : n:int -> int
end)
(M : Mem_intf.S) : Aba_register_intf.S = struct
  let algorithm_name = "figure-4 (n+1 bounded registers, O(1) steps)"
  let initial_value = -1

  type xval = { value : int; writer : Pid.t; seq : int }

  (* [A[q]] holds the (writer, seq) pair of an [X] triple, or bottom. *)
  type announcement = (Pid.t * int) option

  type local = { mutable b : bool; pool : Seq_pool.t }

  type t = {
    n : int;
    seq_ceiling : int;  (** sequence numbers live in [0 .. seq_ceiling] *)
    x : xval option M.register;
    announce : announcement M.register array;
    read_announce : int -> announcement;
        (** [fun c -> M.read announce.(c)], allocated once at creation so
            the DWrite hot path does not build a closure per call *)
    locals : local array;
    init : int;  (** the value a DRead reports while [X] is still bottom *)
  }

  let show_x = function
    | None -> "_"
    | Some { value; writer; seq } ->
        Printf.sprintf "(%d,p%d,%d)" value writer seq

  let show_a = function
    | None -> "_"
    | Some (p, s) -> Printf.sprintf "(p%d,%d)" p s

  (* The construction is wait-free — no retry loop anywhere — so [backoff]
     is accepted (for interface uniformity) and ignored.  [padded] spreads
     the [n + 1] registers over distinct cache lines: [X] and each [A[q]]
     are written by different processes, and unpadded they sit on adjacent
     lines, so every DWrite invalidates every reader's announce entry. *)
  let create ?(value_bound = Bounded.int_range ~lo:(-1) ~hi:255)
      ?(init = initial_value) ?(padded = false) ?backoff:_ ~n () =
    let seq_ceiling = Ceiling.seq_ceiling ~n in
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
    let make_local _ =
      let l = { b = false; pool = Seq_pool.create ~ceiling:seq_ceiling ~n () } in
      if padded then Padded.copy l else l
    in
    let announce =
      Array.init n (fun q ->
          M.make_register ~bound:a_bound ~padded
            ~name:("A[" ^ string_of_int q ^ "]")
            ~show:show_a None)
    in
    {
      n;
      seq_ceiling;
      x = M.make_register ~bound:x_bound ~padded ~name:"X" ~show:show_x None;
      announce;
      read_announce = (fun c -> M.read announce.(c));
      locals = Array.init n make_local;
      init;
    }

  (* Lines 26–27: two shared steps in total (GetSeq's single announce-entry
     read, then the write of [X]). *)
  let dwrite t ~pid x =
    let l = t.locals.(pid) in
    let s = Seq_pool.next l.pool ~me:pid ~read_announce:t.read_announce in
    M.write t.x (Some { value = x; writer = pid; seq = s })

  let key = function
    | None -> None
    | Some { writer; seq; _ } -> Some (writer, seq)

  let value_of t = function None -> t.init | Some { value; _ } -> value

  (* Lines 38–50: four shared steps. *)
  let dread t ~pid:q =
    let l = t.locals.(q) in
    let xv = M.read t.x in
    let old_announcement = M.read t.announce.(q) in
    M.write t.announce.(q) (key xv);
    let xv' = M.read t.x in
    let flag = if key xv = old_announcement then l.b else true in
    l.b <- xv <> xv';
    (value_of t xv, flag)

  let space _ = M.space ()
end

(** Figure 4 as published. *)
module Make (M : Mem_intf.S) : Aba_register_intf.S =
  Make_with_ceiling
    (struct
      let seq_ceiling ~n = (2 * n) + 1
    end)
    (M)
