module Make () : Mem_intf.S = struct
  let mem_name = "seq"
  (* Newest first; [space] restores creation order. *)
  let objects : (string * (unit -> string)) list ref = ref []

  let register_object ~name bound_desc =
    objects := (name, bound_desc) :: !objects

  (* Descriptions are rendered only when [space] reads them. *)
  let desc_of bound () =
    match bound with None -> "unbounded" | Some b -> Bounded.describe b

  let guard bound name v =
    match bound with
    | None -> ()
    | Some b -> Bounded.check ~what:name b v

  type 'a register = {
    r_name : string;
    r_bound : 'a Bounded.t option;
    mutable r_value : 'a;
  }

  let make_register ?bound ?padded:_ ~name ~show:_ init =
    guard bound name init;
    register_object ~name (desc_of bound);
    { r_name = name; r_bound = bound; r_value = init }

  let read r = r.r_value

  let write r v =
    guard r.r_bound r.r_name v;
    r.r_value <- v

  type 'a cas = {
    c_name : string;
    c_bound : 'a Bounded.t option;
    c_writable : bool;
    c_codec : 'a Mem_intf.codec option;
    mutable c_value : 'a;
  }

  let make_cas ?bound ?(writable = false) ?padded:_ ~name ~show:_ init =
    guard bound name init;
    register_object ~name (desc_of bound);
    { c_name = name; c_bound = bound; c_writable = writable; c_codec = None;
      c_value = init }

  (* This backend's CAS is already structural, so the codec is only kept to
     serve the packed accessors. *)
  let make_cas_packed ?bound ?(writable = false) ?padded:_ ~name ~show:_ ~codec
      init =
    guard bound name init;
    register_object ~name (desc_of bound);
    { c_name = name; c_bound = bound; c_writable = writable;
      c_codec = Some codec; c_value = init }

  let cas_read c = c.c_value

  let cas c ~expect ~update =
    if c.c_value = expect then begin
      guard c.c_bound c.c_name update;
      c.c_value <- update;
      true
    end
    else false

  let cas_write c v =
    if not c.c_writable then
      invalid_arg
        (Printf.sprintf "Seq_mem.cas_write: %s is not a writable CAS object"
           c.c_name);
    guard c.c_bound c.c_name v;
    c.c_value <- v

  let codec_of c =
    match c.c_codec with
    | Some k -> k
    | None ->
        invalid_arg
          (Printf.sprintf "Seq_mem: %s is not a packed CAS object" c.c_name)

  let cas_read_packed c = (codec_of c).Mem_intf.encode c.c_value

  let cas_packed c ~expect ~update =
    let k = codec_of c in
    cas c ~expect:(k.Mem_intf.decode expect) ~update:(k.Mem_intf.decode update)

  type 'a cas2 = {
    w_name : string;
    w_bound : 'a Bounded.t option;
    w_codec : 'a Mem_intf.codec option;
    w_tag_bits : int;
    mutable w_value : 'a;
    mutable w_tag : int;
  }

  let make_cas2 ?bound ?padded:_ ?codec ~tag_bits ~name ~show:_ init itag =
    Mem_intf.check_tag_bits ~what:"Seq_mem.make_cas2" tag_bits;
    guard bound name init;
    register_object ~name (desc_of bound);
    { w_name = name; w_bound = bound; w_codec = codec; w_tag_bits = tag_bits;
      w_value = init; w_tag = itag land ((1 lsl tag_bits) - 1) }

  let cas2_read w = (w.w_value, w.w_tag)

  let cas2 w ~expect ~expect_tag ~update ~update_tag =
    let mask = (1 lsl w.w_tag_bits) - 1 in
    if w.w_value = expect && w.w_tag = expect_tag land mask then begin
      guard w.w_bound w.w_name update;
      w.w_value <- update;
      w.w_tag <- update_tag land mask;
      true
    end
    else false

  let codec2_of w =
    match w.w_codec with
    | Some k -> k
    | None ->
        invalid_arg
          (Printf.sprintf "Seq_mem: %s is not a packed cas2 object" w.w_name)

  let cas2_pack w v t =
    Mem_intf.pack2 ~tag_bits:w.w_tag_bits ((codec2_of w).Mem_intf.encode v) t

  let cas2_read_packed w = cas2_pack w w.w_value w.w_tag

  let cas2_packed w ~expect ~update =
    let k = codec2_of w in
    let tb = w.w_tag_bits in
    cas2 w
      ~expect:(k.Mem_intf.decode (Mem_intf.unpack2_value ~tag_bits:tb expect))
      ~expect_tag:(Mem_intf.unpack2_tag ~tag_bits:tb expect)
      ~update:(k.Mem_intf.decode (Mem_intf.unpack2_value ~tag_bits:tb update))
      ~update_tag:(Mem_intf.unpack2_tag ~tag_bits:tb update)

  type 'a llsc = {
    l_name : string;
    l_bound : 'a Bounded.t option;
    mutable l_value : 'a;
    mutable l_seq : int;
    l_link : (Pid.t, int) Hashtbl.t;
  }

  let make_llsc ?bound ?padded:_ ~name ~show:_ init =
    guard bound name init;
    register_object ~name (desc_of bound);
    { l_name = name; l_bound = bound; l_value = init; l_seq = 0;
      l_link = Hashtbl.create 8 }

  let ll o ~pid =
    Hashtbl.replace o.l_link pid o.l_seq;
    o.l_value

  let link_valid o pid =
    (* A process that never performed LL has a valid link as long as no
       successful SC occurred (Appendix A convention). *)
    match Hashtbl.find_opt o.l_link pid with
    | Some s -> s = o.l_seq
    | None -> o.l_seq = 0

  let sc o ~pid v =
    if link_valid o pid then begin
      guard o.l_bound o.l_name v;
      o.l_value <- v;
      o.l_seq <- o.l_seq + 1;
      true
    end
    else false

  let vl o ~pid = link_valid o pid

  let space () = List.rev_map (fun (name, desc) -> (name, desc ())) !objects
end

let make () : (module Mem_intf.S) = (module Make ())
