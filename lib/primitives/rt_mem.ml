(** The multicore {!Mem_intf.S} instance over OCaml 5 [Atomic].

    This is the third backend of the single-source-of-truth stack: the
    paper's functors ({!Aba_core.Llsc_from_cas}, {!Aba_core.Aba_from_registers},
    ...) are verified under {!Seq_mem} and {!Aba_sim.Sim_mem} and then run
    on real domains through this instance, so the code that is benchmarked
    is the code that was model-checked.

    Semantics per object kind:

    - {e registers} are ['a Atomic.t]: [read]/[write] are single
      sequentially consistent loads and stores, exactly the paper's atomic
      read/write registers.
    - {e packed CAS objects} ({!Mem_intf.S.make_cas_packed}) store the
      codec encoding in an [int Atomic.t].  [Atomic.compare_and_set] on an
      immediate int is exact value comparison — a genuine bounded hardware
      CAS word, ABAs included — and the packed accessors
      ([cas_read_packed]/[cas_packed]) never allocate.
    - {e plain CAS objects} fall back to a freshly allocated box per
      update; the expected box is the one read by the caller, so physical
      comparison means "unchanged since my read".  This is ABA-free and
      hence {e conservative} with respect to the structural [cas] the
      interface specifies: it can fail where a structural CAS would
      succeed (when the value returned to [expect] through intermediate
      changes) but never the converse, and in sequential executions the
      two coincide.  Algorithms that are correct under real (ABA-prone)
      CAS remain correct under an ABA-free one; constructions that rely on
      the bounded-word semantics must use the packed interface.

    Domain ([Bounded.t]) checks happen at creation time only: the hot
    paths stay allocation- and branch-free, and every per-step check is
    performed by the seq/sim backends running the very same functor body.

    The functor takes [n], the number of processes, used only to size the
    per-process link tables of LL/SC base objects.  Per-process link slots
    are written and read only by their own process (a requirement the
    paper's model shares), so they are plain array cells. *)

module Make (N : sig
  val n : int
end) : Mem_intf.S = struct
  let mem_name = "rt"

  (* Creation is not a shared-memory step, but objects may still be created
     from several domains (e.g. per-domain helper structures), so the space
     list is kept with a CAS loop.  Newest first (an append would make
     creating m objects cost O(m^2)); [space] restores creation order. *)
  let objects : (string * (unit -> string)) list Atomic.t = Atomic.make []

  let register_object ~name bound_desc =
    let rec add () =
      let seen = Atomic.get objects in
      if not (Atomic.compare_and_set objects seen ((name, bound_desc) :: seen))
      then add ()
    in
    add ()

  (* Descriptions are rendered only when [space] reads them. *)
  let desc_of bound () =
    match bound with None -> "unbounded" | Some b -> Bounded.describe b

  let guard bound name v =
    match bound with
    | None -> ()
    | Some b -> Bounded.check ~what:name b v

  type 'a register = 'a Atomic.t

  let make_register ?bound ?(padded = false) ~name ~show:_ init =
    guard bound name init;
    register_object ~name (desc_of bound);
    if padded then Padded.atomic init else Atomic.make init

  let read = Atomic.get

  let write = Atomic.set

  (* A plain CAS object holds a box; a packed one holds the encoding. *)
  type 'a box = { v : 'a }

  type 'a repr =
    | Boxed of 'a box Atomic.t
    | Packed of { cell : int Atomic.t; codec : 'a Mem_intf.codec }

  type 'a cas = { c_name : string; c_writable : bool; c_repr : 'a repr }

  let make_cas ?bound ?(writable = false) ?(padded = false) ~name ~show:_
      init =
    guard bound name init;
    register_object ~name (desc_of bound);
    let cell = Atomic.make { v = init } in
    { c_name = name; c_writable = writable;
      c_repr = Boxed (if padded then Padded.copy cell else cell) }

  let make_cas_packed ?bound ?(writable = false) ?(padded = false) ~name
      ~show:_ ~codec init =
    guard bound name init;
    register_object ~name (desc_of bound);
    let cell = Atomic.make (codec.Mem_intf.encode init) in
    { c_name = name; c_writable = writable;
      c_repr =
        Packed { cell = (if padded then Padded.copy cell else cell); codec } }

  let cas_read c =
    match c.c_repr with
    | Boxed cell -> (Atomic.get cell).v
    | Packed { cell; codec } -> codec.Mem_intf.decode (Atomic.get cell)

  let cas c ~expect ~update =
    match c.c_repr with
    | Packed { cell; codec } ->
        (* Injectivity of [encode] makes int equality exact value equality:
           this is the structural CAS, on hardware. *)
        Atomic.compare_and_set cell
          (codec.Mem_intf.encode expect)
          (codec.Mem_intf.encode update)
    | Boxed cell ->
        (* ABA-free conservative fallback: succeed only if the current box
           holds [expect] AND nobody replaced the box since we read it. *)
        let seen = Atomic.get cell in
        seen.v = expect && Atomic.compare_and_set cell seen { v = update }

  let cas_write c v =
    if not c.c_writable then
      invalid_arg
        (Printf.sprintf "Rt_mem.cas_write: %s is not a writable CAS object"
           c.c_name);
    match c.c_repr with
    | Boxed cell -> Atomic.set cell { v }
    | Packed { cell; codec } -> Atomic.set cell (codec.Mem_intf.encode v)

  let packed_cell c =
    match c.c_repr with
    | Packed { cell; _ } -> cell
    | Boxed _ ->
        invalid_arg
          (Printf.sprintf "Rt_mem: %s is not a packed CAS object" c.c_name)

  let cas_read_packed c = Atomic.get (packed_cell c)

  let cas_packed c ~expect ~update =
    Atomic.compare_and_set (packed_cell c) expect update

  (* Double-word CAS.  With a codec the (encoded value, tag) pair lives in
     one [int Atomic.t] — hardware CAS on the packed word is exact pair
     comparison, ABAs included, with an allocation-free hot path.  Without
     a codec the pair is boxed and CAS'd physically: ABA-free and
     conservative, exactly like the plain [cas] fallback above. *)
  type 'a pair_box = { pv : 'a; pt : int }
  type 'a packed2 = { cell2 : int Atomic.t; codec2 : 'a Mem_intf.codec }

  type 'a repr2 =
    | Boxed2 of 'a pair_box Atomic.t
    | Packed2 of 'a packed2

  type 'a cas2 = { w_name : string; w_tag_bits : int; w_repr : 'a repr2 }

  let make_cas2 ?bound ?(padded = false) ?codec ~tag_bits ~name ~show:_ init
      itag =
    Mem_intf.check_tag_bits ~what:"Rt_mem.make_cas2" tag_bits;
    guard bound name init;
    register_object ~name (desc_of bound);
    let itag = itag land ((1 lsl tag_bits) - 1) in
    let repr =
      match codec with
      | Some k ->
          let cell =
            Atomic.make (Mem_intf.pack2 ~tag_bits (k.Mem_intf.encode init) itag)
          in
          Packed2
            { cell2 = (if padded then Padded.copy cell else cell); codec2 = k }
      | None ->
          let cell = Atomic.make { pv = init; pt = itag } in
          Boxed2 (if padded then Padded.copy cell else cell)
    in
    { w_name = name; w_tag_bits = tag_bits; w_repr = repr }

  let cas2_read w =
    match w.w_repr with
    | Boxed2 cell ->
        let b = Atomic.get cell in
        (b.pv, b.pt)
    | Packed2 { cell2; codec2 } ->
        let x = Atomic.get cell2 in
        ( codec2.Mem_intf.decode (Mem_intf.unpack2_value ~tag_bits:w.w_tag_bits x),
          Mem_intf.unpack2_tag ~tag_bits:w.w_tag_bits x )

  let cas2 w ~expect ~expect_tag ~update ~update_tag =
    match w.w_repr with
    | Packed2 { cell2; codec2 } ->
        Atomic.compare_and_set cell2
          (Mem_intf.pack2 ~tag_bits:w.w_tag_bits
             (codec2.Mem_intf.encode expect) expect_tag)
          (Mem_intf.pack2 ~tag_bits:w.w_tag_bits
             (codec2.Mem_intf.encode update) update_tag)
    | Boxed2 cell ->
        let mask = (1 lsl w.w_tag_bits) - 1 in
        let seen = Atomic.get cell in
        seen.pv = expect
        && seen.pt = expect_tag land mask
        && Atomic.compare_and_set cell seen
             { pv = update; pt = update_tag land mask }

  let packed2_of w =
    match w.w_repr with
    | Packed2 p -> p
    | Boxed2 _ ->
        invalid_arg
          (Printf.sprintf "Rt_mem: %s is not a packed cas2 object" w.w_name)

  let cas2_pack w v t =
    Mem_intf.pack2 ~tag_bits:w.w_tag_bits
      ((packed2_of w).codec2.Mem_intf.encode v)
      t

  let cas2_read_packed w = Atomic.get (packed2_of w).cell2

  let cas2_packed w ~expect ~update =
    Atomic.compare_and_set (packed2_of w).cell2 expect update

  (* Native LL/SC base object, Moir-style [26]: every successful SC installs
     a fresh box and each process remembers the box its link refers to.  The
     held box is kept alive by the link table, so the GC cannot make two
     generations physically equal — the allocator is the unbounded tag.
     [invalid] is a sentinel never stored in [x]; a process's own successful
     SC consumes its link by planting it. *)
  type 'a llsc = {
    x : 'a box Atomic.t;
    invalid : 'a box;
    link : 'a box Padded.t;  (** slot [p] touched only by process [p] *)
  }

  let make_llsc ?bound ?(padded = false) ~name ~show:_ init =
    guard bound name init;
    register_object ~name (desc_of bound);
    let first = { v = init } in
    (* Linking every process to the initial box realizes the Appendix A
       convention: SC/VL by a process that never performed LL behave as if
       it had linked at the initial configuration.  When padded, the link
       slots are strided so that neighbouring processes' link writes do not
       invalidate each other's line, and [x] owns its own line. *)
    let x = Atomic.make first in
    { x = (if padded then Padded.copy x else x);
      invalid = { v = init };
      link = Padded.make_array ~padded N.n first }

  let ll o ~pid =
    let c = Atomic.get o.x in
    Padded.set o.link pid c;
    c.v

  let sc o ~pid v =
    let c = Padded.get o.link pid in
    Padded.set o.link pid o.invalid;
    c != o.invalid && Atomic.compare_and_set o.x c { v }

  let vl o ~pid = Atomic.get o.x == Padded.get o.link pid

  let space () =
    List.rev_map (fun (name, desc) -> (name, desc ())) (Atomic.get objects)
end

let make ~n () : (module Mem_intf.S) =
  (module Make (struct
    let n = n
  end))
