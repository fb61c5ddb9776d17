open Aba_primitives

type ('op, 'res) pending_call = { promise : 'res Sim.promise }

type ('op, 'res) t = {
  sim : Sim.t;
  apply : Pid.t -> 'op -> unit -> 'res;
  pending : ('op, 'res) pending_call option array;
  last_result : 'res option array;
  last_steps : int array;
  mutable max_op_steps : int;
  mutable events_rev : ('op, 'res) Event.t list;
}

let create ~sim ~apply =
  let n = Sim.n sim in
  {
    sim;
    apply;
    pending = Array.make n None;
    last_result = Array.make n None;
    last_steps = Array.make n 0;
    max_op_steps = 0;
    events_rev = [];
  }

let sim d = d.sim

let record d e = d.events_rev <- e :: d.events_rev

let complete d p (c : ('op, 'res) pending_call) =
  match Sim.result c.promise with
  | None -> ()
  | Some r ->
      d.pending.(p) <- None;
      d.last_result.(p) <- Some r;
      let steps = Sim.steps_of c.promise in
      d.last_steps.(p) <- steps;
      if steps > d.max_op_steps then d.max_op_steps <- steps;
      record d (Event.Response (p, r))

let invoke d p op =
  (match d.pending.(p) with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Driver.invoke: process %d has a pending operation" p)
  | None -> ());
  record d (Event.Invoke (p, op));
  let promise = Sim.invoke d.sim p (d.apply p op) in
  let call = { promise } in
  d.pending.(p) <- Some call;
  complete d p call

let step d p =
  match d.pending.(p) with
  | None ->
      invalid_arg
        (Printf.sprintf "Driver.step: process %d has no pending operation" p)
  | Some call ->
      Sim.step d.sim p;
      complete d p call

(* A crash drops the pending call: the simulator erases [p]'s program
   state, and the call's Invoke event stays unmatched in the history — the
   standard representation of an operation that neither returned nor can
   be assumed to have taken effect.  Checkers for crash workloads decide
   from the final shared state whether the unmatched operation landed. *)
let crash d p =
  match d.pending.(p) with
  | None ->
      invalid_arg
        (Printf.sprintf "Driver.crash: process %d has no pending operation" p)
  | Some _ ->
      Sim.crash d.sim p;
      d.pending.(p) <- None

let finish d p =
  let rec go () =
    match d.pending.(p) with
    | None -> ()
    | Some _ ->
        step d p;
        go ()
  in
  go ()

let pending d p = Option.is_some d.pending.(p)
let last_result d p = d.last_result.(p)
let last_steps d p = d.last_steps.(p)
let max_op_steps d = d.max_op_steps
let history d = List.rev d.events_rev

module Incremental = struct
  (* One action of process [p]: lazily invoke its next scripted operation
     if it is idle, then execute one shared-memory step (unless the
     invocation completed with zero steps).  This is the unit of
     scheduling of both explorers; the executed step's footprint is
     returned so the DPOR engine can compute dependences.

     A path entry is a {e move}: process [p]'s ordinary action is recorded
     as [p] itself, a crash of [p] as the negative code [-(p + 1)].  Both
     replay deterministically, so a rewind reproduces crash-containing
     prefixes exactly.  The path is a growable array whose first [depth]
     entries are live: a rewind truncates it in place. *)
  type ('op, 'res) u = {
    make : unit -> ('op, 'res) t;
    scripts : 'op list array;
    on_crash : Pid.t -> 'op list;
    mutable driver : ('op, 'res) t;
    mutable remaining : 'op list array;
    mutable moves : int array;  (** executed moves, oldest first *)
    mutable depth : int;
    mutable rebuilds : int;
    mutable actions_executed : int;
    mutable actions_replayed : int;
  }

  let crash_move p = -(p + 1)
  let is_crash_move m = m < 0
  let pid_of_move m = if m >= 0 then m else -m - 1

  let footprint_of d p = Option.map Step.footprint (Sim.poised (sim d) p)

  (* The action itself; [with_fp] asks for the executed step's footprint
     (a replay does not need it). *)
  let act ~with_fp u p =
    let d = u.driver in
    if pending d p then begin
      let fp = if with_fp then footprint_of d p else None in
      step d p;
      fp
    end
    else
      match u.remaining.(p) with
      | [] -> invalid_arg "Driver.Incremental: process has no work"
      | op :: rest ->
          u.remaining.(p) <- rest;
          invoke d p op;
          if pending d p then begin
            let fp = if with_fp then footprint_of d p else None in
            step d p;
            fp
          end
          else None (* zero-step operation: empty footprint *)

  (* The crash half of a move: kill the pending operation and queue the
     recovery program (possibly empty) ahead of the pid's remaining
     script.  Deterministic, hence replayable. *)
  let crash_act u p =
    crash u.driver p;
    match u.on_crash p with
    | [] -> ()
    | recovery -> u.remaining.(p) <- recovery @ u.remaining.(p)

  let push u m =
    if u.depth = Array.length u.moves then begin
      let grown = Array.make (max 16 (2 * u.depth)) 0 in
      Array.blit u.moves 0 grown 0 u.depth;
      u.moves <- grown
    end;
    u.moves.(u.depth) <- m;
    u.depth <- u.depth + 1

  let create ?(on_crash = fun _ -> []) ~make ~scripts () =
    {
      make;
      scripts;
      on_crash;
      driver = make ();
      remaining = Array.copy scripts;
      moves = [||];
      depth = 0;
      rebuilds = 0;
      actions_executed = 0;
      actions_replayed = 0;
    }

  let driver u = u.driver
  let depth u = u.depth
  let path u = List.init u.depth (Array.get u.moves)

  let enabled u =
    let d = u.driver in
    let rec from p acc =
      if p < 0 then acc
      else
        from (p - 1)
          (if pending d p || u.remaining.(p) <> [] then p :: acc else acc)
    in
    from (Sim.n (sim d) - 1) []

  let next_footprint u p = footprint_of u.driver p

  let advance u p =
    let fp = act ~with_fp:true u p in
    push u p;
    u.actions_executed <- u.actions_executed + 1;
    fp

  let crash u p =
    crash_act u p;
    push u (crash_move p);
    u.actions_executed <- u.actions_executed + 1

  (* Checkpointed re-execution: the retained path is the checkpoint.  A
     rewind to depth [d] rebuilds a fresh instance and replays exactly the
     first [d] moves of the path — once per backtrack, not once per node
     as the naive explorer does.  The moves are replayed from the array
     they already sit in, and without computing footprints. *)
  let rewind u ~depth:d =
    if d < 0 || d > u.depth then invalid_arg "Driver.Incremental.rewind";
    if d <> u.depth then begin
      Sim.discard (sim u.driver);
      u.driver <- u.make ();
      u.remaining <- Array.copy u.scripts;
      u.rebuilds <- u.rebuilds + 1;
      for i = 0 to d - 1 do
        let m = u.moves.(i) in
        let p = pid_of_move m in
        if is_crash_move m then crash_act u p
        else ignore (act ~with_fp:false u p)
      done;
      u.depth <- d;
      u.actions_replayed <- u.actions_replayed + d
    end

  type stats = {
    rebuilds : int;
    actions_executed : int;
    actions_replayed : int;
  }

  let stats (u : _ u) =
    {
      rebuilds = u.rebuilds;
      actions_executed = u.actions_executed;
      actions_replayed = u.actions_replayed;
    }
end

let run_random d ~scripts ~seed ?(max_actions = 1_000_000) () =
  let n = Sim.n d.sim in
  if Array.length scripts <> n then
    invalid_arg "Driver.run_random: scripts array must have length n";
  let remaining = Array.map (fun l -> ref l) scripts in
  let rng = Random.State.make [| seed |] in
  let has_work p = pending d p || !(remaining.(p)) <> [] in
  let act p =
    if pending d p then step d p
    else
      match !(remaining.(p)) with
      | [] -> assert false
      | op :: rest ->
          remaining.(p) := rest;
          invoke d p op
  in
  let rec go budget =
    let workers = List.filter has_work (Pid.all ~n) in
    match workers with
    | [] -> ()
    | _ ->
        if budget = 0 then
          failwith "Driver.run_random: exceeded action budget"
        else begin
          let k = Random.State.int rng (List.length workers) in
          act (List.nth workers k);
          go (budget - 1)
        end
  in
  go max_actions
