open Aba_primitives

module Make (A : sig
  val sim : Sim.t
end) : Mem_intf.S = struct
  let mem_name = "sim"

  (* Each typed object couples a cell with the embedding of its value type
     into the universal store.  Projection failures cannot happen as long as
     each cell is only accessed through its own wrapper, which the type of
     the wrapper guarantees.  [codec] is present on packed CAS objects only;
     the simulator's CAS is already structural, so packed accessors decode
     and delegate — still one scheduler step each, with the decoded values
     visible to domain checks and traces. *)
  type 'a typed = {
    cell : Cell.t;
    embed : 'a Univ.embed;
    codec : 'a Mem_intf.codec option;
  }

  (* Objects created through this instance, newest first.  Several instances
     may share one simulation (e.g. an algorithm plus the harness around
     it); [space] reports only this instance's objects so Theorem 1's "m" is
     measured per implementation. *)
  let created : Cell.t list ref = ref []

  type 'a register = 'a typed
  type 'a cas = 'a typed
  type 'a llsc = 'a typed

  (* A double-word CAS object is one cell holding the (value, tag) pair:
     [cas2] is a single [Step.Cas] on that cell, so its DPOR footprint is
     the same Rmw footprint as any CAS and explored schedules stay
     certifiable without new step kinds. *)
  type 'a cas2 = { p2 : ('a * int) typed; p2_tag_bits : int }

  let project (o : 'a typed) (u : Univ.t) : 'a =
    match o.embed.prj u with
    | Some v -> v
    | None ->
        invalid_arg
          (Printf.sprintf "Sim_mem: foreign value in cell %s" o.cell.Cell.name)

  let make_typed ?bound ?codec ~name ~show ~kind init : 'a typed =
    let embed = Univ.create () in
    let show_u u =
      match embed.Univ.prj u with Some v -> show v | None -> "<foreign>"
    in
    let check_domain u =
      match bound with
      | None -> ()
      | Some b -> (
          match embed.Univ.prj u with
          | Some v -> Bounded.check ~what:name b v
          | None ->
              invalid_arg
                (Printf.sprintf "Sim_mem: foreign value written to %s" name))
    in
    let domain_desc () =
      match bound with None -> "unbounded" | Some b -> Bounded.describe b
    in
    let cell =
      Sim.register_cell A.sim ~name ~kind ~show:show_u ~check_domain
        ~domain_desc ~init:(embed.Univ.inj init)
    in
    created := cell :: !created;
    { cell; embed; codec }

  let value_outcome o = function
    | Step.Value u -> project o u
    | Step.Bool _ | Step.Unit ->
        invalid_arg "Sim_mem: step returned a non-value outcome"

  let bool_outcome = function
    | Step.Bool b -> b
    | Step.Value _ | Step.Unit ->
        invalid_arg "Sim_mem: step returned a non-bool outcome"

  let make_register ?bound ?padded:_ ~name ~show init =
    make_typed ?bound ~name ~show ~kind:Cell.Register init

  let read (r : 'a register) : 'a =
    value_outcome r (Sim.perform_step (Step.Read r.cell))

  let write (r : 'a register) (v : 'a) =
    match Sim.perform_step (Step.Write (r.cell, r.embed.Univ.inj v)) with
    | Step.Unit -> ()
    | Step.Value _ | Step.Bool _ ->
        invalid_arg "Sim_mem: write returned a non-unit outcome"

  let make_cas ?bound ?(writable = false) ?padded:_ ~name ~show init =
    let kind = if writable then Cell.Writable_cas else Cell.Cas_obj in
    make_typed ?bound ~name ~show ~kind init

  let make_cas_packed ?bound ?(writable = false) ?padded:_ ~name ~show ~codec
      init =
    let kind = if writable then Cell.Writable_cas else Cell.Cas_obj in
    make_typed ?bound ~codec ~name ~show ~kind init

  let cas_read (c : 'a cas) : 'a =
    value_outcome c (Sim.perform_step (Step.Read c.cell))

  let cas (c : 'a cas) ~expect ~update =
    bool_outcome
      (Sim.perform_step
         (Step.Cas (c.cell, c.embed.Univ.inj expect, c.embed.Univ.inj update)))

  let codec_of (c : 'a cas) =
    match c.codec with
    | Some k -> k
    | None ->
        invalid_arg
          (Printf.sprintf "Sim_mem: %s is not a packed CAS object"
             c.cell.Cell.name)

  let cas_read_packed (c : 'a cas) = (codec_of c).Mem_intf.encode (cas_read c)

  let cas_packed (c : 'a cas) ~expect ~update =
    let k = codec_of c in
    cas c ~expect:(k.Mem_intf.decode expect) ~update:(k.Mem_intf.decode update)

  let cas_write (c : 'a cas) (v : 'a) =
    match Sim.perform_step (Step.Write (c.cell, c.embed.Univ.inj v)) with
    | Step.Unit -> ()
    | Step.Value _ | Step.Bool _ ->
        invalid_arg "Sim_mem: write returned a non-unit outcome"

  let make_cas2 ?bound ?padded:_ ?codec ~tag_bits ~name ~show init itag =
    Mem_intf.check_tag_bits ~what:"Sim_mem.make_cas2" tag_bits;
    let mask = (1 lsl tag_bits) - 1 in
    let tag_bound = Bounded.bits ~width:tag_bits in
    let pair_bound =
      match bound with
      | Some b -> Bounded.pair b tag_bound
      | None -> Bounded.pair (Bounded.unbounded ~describe:"any value") tag_bound
    in
    let pair_codec =
      Option.map
        (fun (k : 'a Mem_intf.codec) ->
          {
            Mem_intf.encode =
              (fun (v, t) -> Mem_intf.pack2 ~tag_bits (k.Mem_intf.encode v) t);
            decode =
              (fun w ->
                ( k.Mem_intf.decode (Mem_intf.unpack2_value ~tag_bits w),
                  Mem_intf.unpack2_tag ~tag_bits w ));
          })
        codec
    in
    let show_pair (v, t) = Printf.sprintf "(%s, t%d)" (show v) t in
    {
      p2 =
        make_typed ~bound:pair_bound ?codec:pair_codec ~name ~show:show_pair
          ~kind:Cell.Cas_obj
          (init, itag land mask);
      p2_tag_bits = tag_bits;
    }

  let cas2_read w = cas_read w.p2

  let cas2 w ~expect ~expect_tag ~update ~update_tag =
    let mask = (1 lsl w.p2_tag_bits) - 1 in
    cas w.p2
      ~expect:(expect, expect_tag land mask)
      ~update:(update, update_tag land mask)

  let cas2_pack w v t =
    (codec_of w.p2).Mem_intf.encode (v, t land ((1 lsl w.p2_tag_bits) - 1))

  let cas2_read_packed w = cas_read_packed w.p2
  let cas2_packed w ~expect ~update = cas_packed w.p2 ~expect ~update

  let make_llsc ?bound ?padded:_ ~name ~show init =
    make_typed ?bound ~name ~show ~kind:Cell.Llsc_obj init

  let ll (o : 'a llsc) ~pid:_ : 'a =
    value_outcome o (Sim.perform_step (Step.Ll o.cell))

  let sc (o : 'a llsc) ~pid:_ (v : 'a) =
    bool_outcome (Sim.perform_step (Step.Sc (o.cell, o.embed.Univ.inj v)))

  let vl (o : 'a llsc) ~pid:_ =
    bool_outcome (Sim.perform_step (Step.Vl o.cell))

  let space () =
    List.rev_map
      (fun (c : Cell.t) -> (c.Cell.name, c.Cell.domain_desc ()))
      !created
end

let make sim : (module Mem_intf.S) =
  (module Make (struct
    let sim = sim
  end))
