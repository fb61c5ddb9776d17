(** Figure 3: LL/SC/VL from a {e single} bounded CAS object, with [O(n)]
    step complexity (Theorem 2).

    The CAS object [X] stores a pair [(x, a)] where [x] is the value of the
    implemented object and [a] is an [n]-bit mask; bit [p] of [a] set means
    "a successful SC may have linearized since [p]'s last LL".  A successful
    [SC] writes [(y, 2^n - 1)], setting every process's bit; an [LL] by [p]
    tries to clear its own bit with a CAS.

    The key counting argument (Claim 6): if [p]'s CAS fails [n] times in a
    row, [X] changed [n] times, and at most [n - 1] of those changes can be
    bit-clearing CAS's of LL operations (each clears a distinct bit from 1
    to 0 and only [SC] sets bits back) — so at least one change was a
    successful [SC], which justifies giving up: [LL] sets the local flag
    [b], which forces the next [SC]/[VL] of [p] to report an invalid link.

    Step complexity: [LL] at most [2n + 1] steps, [SC] at most [2n] steps,
    [VL] one step — all [O(n)], matching Corollary 1's lower bound
    [m >= (n-1)/t] at [m = 1].

    The pair is held by [X] through the {!codec} below: bits [0, n) are the
    mask, the remaining bits the value, so the whole pair is one immediate
    int.  The algorithm drives [X] through the packed accessors of
    {!Mem_intf.S}; under the seq/sim backends these decode to the
    structural pair (one step each, domain-checked), while under [Rt_mem]
    they are plain [Atomic] operations on the encoded word — a genuine
    bounded hardware CAS, ABAs included, with no allocation. *)

open Aba_primitives

(** The Figure-3 CAS-object value: the implemented object's value and the
    [n]-bit process mask. *)
type xval = { value : int; mask : int }

(** The packing: value bits above [n] mask bits.  [decode] uses an
    arithmetic shift, so negative values (the default domain includes
    [-1]) round-trip as long as [value] fits in [62 - n] signed bits. *)
let codec ~n : xval Mem_intf.codec =
  let mask_bits = (1 lsl n) - 1 in
  {
    Mem_intf.encode = (fun { value; mask } -> (value lsl n) lor mask);
    decode = (fun p -> { value = p asr n; mask = p land mask_bits });
  }

(** The CAS retry loops run [Retries.retries ~n] times; Figure 3 uses [n],
    which Claim 6's counting argument needs — after [n] failures a
    successful SC must have linearized.  The ablation experiments lower the
    bound to watch LL give up too early (a VL/SC failing with no
    intervening SC: a linearizability violation). *)
module Make_with_retries (Retries : sig
  val retries : n:int -> int
end)
(M : Mem_intf.S) : Llsc_intf.S = struct
  let algorithm_name = "figure-3 (1 bounded CAS, O(n) steps)"
  let initial_value = 0

  type t = {
    n : int;
    retries : int;
    x : xval M.cas;
    b : bool array;  (** local flag of each process *)
    bo : Backoff.t array;  (** per-process retry backoff, {!Backoff.noop}
                               unless the creator asked for contention
                               management *)
  }

  let show { value; mask } = Printf.sprintf "(%d,%#x)" value mask

  let create ?(value_bound = Bounded.int_range ~lo:(-1) ~hi:255)
      ?(init = initial_value) ?(padded = false) ?(backoff = Backoff.Noop) ~n
      () =
    if n > 61 then invalid_arg "Llsc_from_cas: n must be at most 61";
    let bound =
      Bounded.make
        ~describe:(fun () ->
          Printf.sprintf "(%s * %d-bit mask)" (Bounded.describe value_bound) n)
        (fun { value; mask } ->
          Bounded.mem value_bound value && 0 <= mask && mask < 1 lsl n)
    in
    {
      n;
      retries = Retries.retries ~n;
      x =
        M.make_cas_packed ~bound ~padded ~name:"X" ~show ~codec:(codec ~n)
          { value = init; mask = 0 };
      b = Array.make n false;
      (* Each process's backoff record on its own line: slot [p] is mutated
         on every one of [p]'s failed CAS's. *)
      bo = Array.init n (fun _ -> Padded.copy (Backoff.make backoff));
    }

  (* Bit fiddling on the encoded pair, mirroring {!codec}. *)
  let mask_of t packed = packed land ((1 lsl t.n) - 1)
  let value_of t packed = packed asr t.n
  let bit_set t packed p = (mask_of t packed lsr p) land 1 = 1
  let all_set t = (1 lsl t.n) - 1

  (* The retry loops are module-level recursive functions rather than local
     closures: a local [let rec attempt] capturing [t] and [p] would be a
     fresh closure allocation on every LL/SC, and the whole point of the
     packed representation is an allocation-free hot path on [Rt_mem].

     [Backoff.reset] is lazy — performed on the first failed CAS, right
     before the first [once] — so an operation whose first CAS succeeds
     (or that needs no CAS at all) does zero backoff stores.  The spin
     sequence under contention is unchanged: the first [once] still spins
     [min_spins]. *)

  (* Lines 14–25. *)
  let rec ll_attempt t p packed i =
    if i > t.retries then begin
      (* n failed CAS's: a successful SC linearized during this LL
         (Claim 6); linearize at the initial read and poison the link. *)
      t.b.(p) <- true;
      value_of t packed
    end
    else begin
      let seen = M.cas_read_packed t.x in
      (* Only p clears its own bit, so it is still set here. *)
      assert (bit_set t seen p);
      (* Clearing bit p of the mask leaves the value untouched. *)
      if M.cas_packed t.x ~expect:seen ~update:(seen - (1 lsl p)) then begin
        t.b.(p) <- false;
        value_of t seen
      end
      else begin
        if i = 1 then Backoff.reset t.bo.(p);
        Backoff.once t.bo.(p);
        ll_attempt t p packed (i + 1)
      end
    end

  let ll t ~pid:p =
    let packed = M.cas_read_packed t.x in
    if not (bit_set t packed p) then begin
      t.b.(p) <- false;
      value_of t packed
    end
    else ll_attempt t p packed 1

  (* Lines 1–8. *)
  let rec sc_attempt t p y i =
    if i > t.retries then false
    else begin
      let seen = M.cas_read_packed t.x in
      if bit_set t seen p then false
      else if M.cas_packed t.x ~expect:seen ~update:((y lsl t.n) lor all_set t)
      then true
      else begin
        if i = 1 then Backoff.reset t.bo.(p);
        Backoff.once t.bo.(p);
        sc_attempt t p y (i + 1)
      end
    end

  let sc t ~pid:p y =
    if t.b.(p) then false else sc_attempt t p y 1

  (* Lines 9–13. *)
  let vl t ~pid:p =
    let packed = M.cas_read_packed t.x in
    (not (bit_set t packed p)) && not t.b.(p)

  let space _ = M.space ()
end

(** Figure 3 as published. *)
module Make (M : Mem_intf.S) : Llsc_intf.S =
  Make_with_retries
    (struct
      let retries ~n = n
    end)
    (M)
