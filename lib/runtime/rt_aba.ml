module Stamped = struct
  (* The stamp record is freshly allocated on every write; holding the
     previously seen stamp pins it, so physical inequality is exactly
     "somebody wrote since then".  Hand-written; kept as the native
     unbounded-tag baseline the unified stack is benchmarked against. *)
  type 'a stamp = { value : 'a }

  type 'a t = { x : 'a stamp Atomic.t; last : 'a stamp array }

  let create ~n init =
    let first = { value = init } in
    { x = Atomic.make first; last = Array.make n first }

  let dwrite t ~pid:_ v = Atomic.set t.x { value = v }

  let dread t ~pid =
    let s = Atomic.get t.x in
    let changed = s != t.last.(pid) in
    t.last.(pid) <- s;
    (s.value, changed)
end

(* Figure 4 instantiated over the multicore memory: the exact functor body
   that is model-checked under Seq_mem/Sim_mem, running on OCaml 5 Atomic.
   The algorithm uses plain loads and stores only, on registers holding
   immutable records — no CAS, so no codec is needed; Rt_mem registers are
   single Atomic cells and every shared step of the functor is one atomic
   load or store. *)
module Fig4_impl =
  Aba_core.Aba_from_registers.Make
    (Aba_primitives.Rt_mem.Make (struct
      let n = 64 (* Fig4 uses no LL/SC base object, so this is inert. *)
    end))

module Fig4 = struct
  module Obs = Aba_obs.Obs

  type t = {
    base : Fig4_impl.t;
    combine : Aba_core.Combining.t option;
        (** read-combining cache over [base]'s [dread]; [None] = every
            read runs the full announce protocol *)
    obs : Obs.t;
  }

  (* Figure 4's registers are bounded in their (writer, seq) components;
     the value component is whatever the client stores, so admit the full
     native int domain.  The runtime register is int-only (every existing
     use site stores ints); generic payloads stay with {!Stamped}. *)
  let int63 =
    Aba_primitives.Bounded.make
      ~describe:(fun () -> "int63")
      (fun (_ : int) -> true)

  let create ?(padded = false) ?(combining = false) ?window
      ?(obs = Obs.noop) ~n init =
    let base = Fig4_impl.create ~value_bound:int63 ~init ~padded ~n () in
    let combine =
      if combining then
        Some
          (Aba_core.Combining.create ~padded ?window ~obs ~n
             ~scan:(fun ~pid -> Fig4_impl.dread base ~pid)
             ())
      else None
    in
    { base; combine; obs }

  let dwrite t ~pid v =
    let t0 = Obs.start t.obs in
    Fig4_impl.dwrite t.base ~pid v;
    Obs.record t.obs ~pid ~kind:Obs.Dwrite ~outcome:Obs.Ok ~retries:0 t0

  let dread t ~pid =
    let t0 = Obs.start t.obs in
    let r =
      match t.combine with
      | None -> Fig4_impl.dread t.base ~pid
      | Some c -> Aba_core.Combining.dread c ~pid
    in
    Obs.record t.obs ~pid ~kind:Obs.Dread ~outcome:Obs.Ok ~retries:0 t0;
    r

  let combining_stats t = Option.map Aba_core.Combining.stats t.combine
end

module From_llsc = struct
  (* Figure 5 over the unified Figure 3 instantiation: Theorem 2's register
     from a single bounded CAS word, same functor chain as
     Instances.aba_thm2 under the seq/sim backends. *)
  module I = Aba_core.Aba_from_llsc.Make (Rt_llsc.Fig3)
  module Obs = Aba_obs.Obs

  type t = { base : I.t; obs : Obs.t }

  let create ?(padded = false) ?(backoff = Aba_primitives.Backoff.Noop)
      ?(obs = Obs.noop) ~n ~init () =
    if n < 1 || n > 40 then
      invalid_arg "Rt_aba.From_llsc.create: n must be 1..40";
    {
      base =
        I.create
          ~value_bound:
            (Aba_primitives.Bounded.int_range ~lo:0 ~hi:((1 lsl (62 - n)) - 1))
          ~init ~padded ~backoff ~n ();
      obs;
    }

  let dwrite t ~pid v =
    let t0 = Obs.start t.obs in
    I.dwrite t.base ~pid v;
    Obs.record t.obs ~pid ~kind:Obs.Dwrite ~outcome:Obs.Ok ~retries:0 t0

  let dread t ~pid =
    let t0 = Obs.start t.obs in
    let r = I.dread t.base ~pid in
    Obs.record t.obs ~pid ~kind:Obs.Dread ~outcome:Obs.Ok ~retries:0 t0;
    r
end
