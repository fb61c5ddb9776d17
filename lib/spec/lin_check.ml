open Aba_primitives

(* Memo tables are keyed by the set of linearized operations alone, with
   the states seen dead for that set in a list: an int key hashes without
   a runtime call, and states are compared only when their sets agree. *)
module Masks = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash m = m land max_int
end)

module Make (S : Seq_spec.S) = struct
  type verdict = Linearizable | Not_linearizable | Too_large

  type op_record = {
    pid : Pid.t;
    op : S.op;
    mutable res : S.res option;  (** [None] for pending operations *)
  }

  type parsed = {
    ops : op_record array;  (** in invocation order: bit [i] is [ops.(i)] *)
    blocked : int array;
        (** [blocked.(i)]: the operations that must linearize before [i],
            those that responded before [i] was invoked *)
    completed : int;  (** the operations that responded *)
  }

  let malformed () = invalid_arg "Lin_check: history is not well formed"

  (* One pass over the history builds the operations in invocation order,
     their precedence and the completed set, and checks well-formedness
     on the way: [open_op.(p)] is the index of [p]'s open invocation, or
     [-1].  An operation must follow exactly those that had responded when
     it was invoked.  A first pass sizes the arrays. *)
  let parse h =
    let k = ref 0 and max_pid = ref (-1) in
    List.iter
      (fun e ->
        let p = Event.pid e in
        if p < 0 then malformed ();
        if p > !max_pid then max_pid := p;
        if Event.is_invoke e then incr k)
      h;
    let open_op = Array.make (!max_pid + 1) (-1) in
    let ops = ref [||] and blocked = Array.make !k 0 in
    let next = ref 0 and responded = ref 0 in
    List.iter
      (function
        | Event.Invoke (p, op) ->
            if open_op.(p) >= 0 then malformed ();
            let r = { pid = p; op; res = None } in
            if !next = 0 then ops := Array.make !k r else !ops.(!next) <- r;
            blocked.(!next) <- !responded;
            open_op.(p) <- !next;
            incr next
        | Event.Response (p, res) ->
            let i = open_op.(p) in
            if i < 0 then malformed ();
            open_op.(p) <- -1;
            !ops.(i).res <- Some res;
            responded := !responded lor (1 lsl i))
      h;
    { ops = !ops; blocked; completed = !responded }

  (* Depth-first search for a linearization, trying operations in
     invocation order; returns the length of the linearization found, or
     [-1].  [order.(d)]/[resp.(d)] receive the operation linearized at
     depth [d] and its response as a success unwinds, so they end up
     holding the witness.

     The memo holds (linearized set, state) pairs proven dead.  It starts
     only after the first [k] dead ends: a small search is over before a
     memo pays for itself (on the Figure 4 model-checking histories, 9
     operations, it saved one [S.apply] in 22 and cost a third of the
     check), while a large one soon passes [k] dead ends. *)
  let search ~n { ops; blocked; completed } order resp =
    let k = Array.length ops in
    let memo = ref None and dead_ends = ref 0 in
    let dead mask st =
      match !memo with
      | None -> false
      | Some m -> (
          match Masks.find_opt m mask with
          | None -> false
          | Some states -> List.mem st states)
    in
    let mark_dead mask st =
      incr dead_ends;
      match !memo with
      | Some m ->
          let states = Option.value ~default:[] (Masks.find_opt m mask) in
          Masks.replace m mask (st :: states)
      | None ->
          if !dead_ends > k then begin
            let m = Masks.create (4 * k) in
            Masks.add m mask [ st ];
            memo := Some m
          end
    in
    let rec go depth mask st =
      if mask land completed = completed then depth
      else if dead mask st then -1
      else try_from depth mask st 0
    and try_from depth mask st i =
      if i = k then begin
        mark_dead mask st;
        -1
      end
      else
        let bit = 1 lsl i in
        if mask land bit <> 0 || blocked.(i) land lnot mask <> 0 then
          try_from depth mask st (i + 1)
        else
          let o = ops.(i) in
          let st', r' = S.apply st o.pid o.op in
          let ok =
            match o.res with
            | Some r -> S.equal_res r r'
            | None -> true (* pending: any response is acceptable *)
          in
          let found = if ok then go (depth + 1) (mask lor bit) st' else -1 in
          if found >= 0 then begin
            order.(depth) <- i;
            resp.(depth) <- Some r';
            found
          end
          else try_from depth mask st (i + 1)
    in
    go 0 0 (S.init ~n)

  let witness ~n h =
    let p = parse h in
    let k = Array.length p.ops in
    if k > 62 then None
    else begin
      let order = Array.make k 0 and resp = Array.make k None in
      let len = search ~n p order resp in
      if len < 0 then None
      else
        Some
          (List.init len (fun d ->
               let o = p.ops.(order.(d)) in
               (o.pid, o.op, Option.get resp.(d))))
    end

  let check ~n h =
    let p = parse h in
    let k = Array.length p.ops in
    if k > 62 then Too_large
    else if search ~n p (Array.make k 0) (Array.make k None) >= 0 then
      Linearizable
    else Not_linearizable

  let check_ok ~n h = check ~n h = Linearizable

  let pp_history ppf h = Event.pp ~op:S.pp_op ~res:S.pp_res ppf h
end
