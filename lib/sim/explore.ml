open Aba_primitives

type ('op, 'res) instance = { driver : ('op, 'res) Driver.t }

type ('op, 'res) outcome =
  | Ok of int
  | Violation of Pid.t list * ('op, 'res) Event.history
  | Budget_exhausted of int

exception Stop of int
exception Found of Pid.t list

(* One action of process [p]: lazily invoke its next scripted operation if
   it is idle, then execute one shared-memory step (unless the invocation
   completed with zero steps). *)
let act driver remaining p =
  if Driver.pending driver p then Driver.step driver p
  else
    match remaining.(p) with
    | [] -> invalid_arg "Explore.act: process has no work"
    | op :: rest ->
        remaining.(p) <- rest;
        Driver.invoke driver p op;
        if Driver.pending driver p then Driver.step driver p

let replay make scripts rev_path =
  let ({ driver } : _ instance) = make () in
  let remaining = Array.copy scripts in
  List.iter (act driver remaining) (List.rev rev_path);
  (driver, remaining)

let exhaustive ~make ~scripts ~check ?(max_schedules = 2_000_000)
    ?(max_depth = 10_000) () =
  let n = Array.length scripts in
  let leaves = ref 0 in
  let rec dfs rev_path depth =
    (* A branch exceeding [max_depth] actions indicates a livelocked
       implementation (e.g. a retry loop that can never succeed): better a
       loud failure than a silent hang. *)
    if depth > max_depth then
      failwith "Explore.exhaustive: branch exceeded max_depth";
    let driver, remaining = replay make scripts rev_path in
    let enabled =
      List.filter
        (fun p -> Driver.pending driver p || remaining.(p) <> [])
        (Pid.all ~n)
    in
    if enabled <> [] then Sim.discard (Driver.sim driver);
    match enabled with
    | [] ->
        incr leaves;
        if not (check (Driver.history driver)) then
          raise (Found (List.rev rev_path));
        if !leaves >= max_schedules then raise (Stop !leaves)
    | _ -> List.iter (fun p -> dfs (p :: rev_path) (depth + 1)) enabled
  in
  match dfs [] 0 with
  | () -> Ok !leaves
  | exception Stop k -> Budget_exhausted k
  | exception Found path ->
      let driver, remaining = replay make scripts (List.rev path) in
      ignore remaining;
      Violation (path, Driver.history driver)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let count_schedules_opt ~n_actions =
  (* Multinomial coefficient, built binomial by binomial.  Each binomial
     C(rem, k) is taken through its smaller side (C(rem, min k (rem-k)))
     so the running value only climbs, and each inner step reduces
     numerator and denominator by their gcd before the overflow-checked
     multiplication — together these make the computation exact whenever
     the result fits in [int], and [None] exactly when it does not. *)
  let total = Array.fold_left ( + ) 0 n_actions in
  let result = ref (Some 1) in
  let remaining = ref total in
  Array.iter
    (fun k ->
      let kk = min k (!remaining - k) in
      for i = 1 to kk do
        match !result with
        | None -> ()
        | Some r ->
            let num = !remaining - kk + i in
            let g = gcd num i in
            let num = num / g and i = i / g in
            (* i is now coprime to num, so it divides r exactly. *)
            let r = r / i in
            if num > 0 && r > max_int / num then result := None
            else result := Some (r * num)
      done;
      remaining := !remaining - k)
    n_actions;
  !result

let count_schedules ~n_actions =
  match count_schedules_opt ~n_actions with Some c -> c | None -> max_int

(* {1 Dynamic partial-order reduction} *)

type dpor_stats = {
  explored : int;
  schedule_bound : int option;
  sleep_set_prunes : int;
  preemption_prunes : int;
  races_detected : int;
  crashes_injected : int;
  max_depth_reached : int;
  rebuilds : int;
  actions_executed : int;
  actions_replayed : int;
}

type ('op, 'res) dpor_result = {
  verdict : ('op, 'res) outcome;
  stats : dpor_stats;
}

(* Sets of processes are bitmasks (bit [p] for process [p]); taking the
   lowest set bit first is the lowest-pid-first order of the search. *)
let mem p s = s land (1 lsl p) <> 0

(* The lowest process in the non-empty set [s]. *)
let lowest s =
  let rec go p = if mem p s then p else go (p + 1) in
  go 0

(* One DFS node.  [f_enabled] is the enabled set {e before} the node's
   action; [f_chosen]/[f_fp]/[f_clock] describe the action most recently
   taken from the node (the event at this depth on the current path).
   The sleep set on entry is [f_sleep] with the footprint of each sleeping
   process's pending move in [f_sleep_fp]; [f_moved]/[f_moved_fp] are the
   moves already explored from the node.  A frame is reused by every node
   at its depth: once a node returns, no later event reads its frame. *)
type frame = {
  mutable f_enabled : int;
  mutable f_backtrack : int;
  mutable f_done : int;
  mutable f_moved : int;
  f_moved_fp : Step.footprint option array;
  mutable f_sleep : int;
  f_sleep_fp : Step.footprint option array;
  mutable f_chosen : Pid.t;
  mutable f_fp : Step.footprint option;
  mutable f_cell : int;  (** [f_fp]'s cell id, [-1] without a footprint *)
  f_clock : int array;
}

let new_frame n =
  {
    f_enabled = 0;
    f_backtrack = 0;
    f_done = 0;
    f_moved = 0;
    f_moved_fp = Array.make n None;
    f_sleep = 0;
    f_sleep_fp = Array.make n None;
    f_chosen = -1;
    f_fp = None;
    f_cell = -1;
    f_clock = Array.make n 0;
  }

let set_move fr p fp =
  fr.f_chosen <- p;
  fr.f_fp <- fp;
  fr.f_cell <- (match fp with Some f -> f.Step.on.Cell.id | None -> -1)

(* Independence of whole actions: an action with no footprint performed no
   shared-memory step, so it commutes with everything. *)
let independent fpa fpb =
  match (fpa, fpb) with
  | Some a, Some b -> not (Step.conflicts a b)
  | None, _ | _, None -> true

(* The sleep set handed to a child of [fr] reached by a move with
   footprint [fp] ([None] for a crash): every sleeping or explored move of
   [fr] independent of it, except the moves of [woken]. *)
let inherit_sleep fr child ~woken fp =
  let s = ref 0 in
  for q = 0 to Array.length fr.f_clock - 1 do
    if q <> woken then
      if mem q fr.f_moved then begin
        if independent fr.f_moved_fp.(q) fp then begin
          s := !s lor (1 lsl q);
          child.f_sleep_fp.(q) <- fr.f_moved_fp.(q)
        end
      end
      else if mem q fr.f_sleep && independent fr.f_sleep_fp.(q) fp then begin
        s := !s lor (1 lsl q);
        child.f_sleep_fp.(q) <- fr.f_sleep_fp.(q)
      end
  done;
  child.f_sleep <- !s

let dpor ~make ~scripts ~check ?(max_schedules = 2_000_000)
    ?(max_depth = 10_000) ?preemption_bound ?(crash_bound = 0)
    ?(on_crash = fun _ -> []) () =
  let n = Array.length scripts in
  if n > Sys.int_size then invalid_arg "Explore.dpor: too many processes";
  let make_driver () = (make () : _ instance).driver in
  (* Reference solo run: per-process action counts under the sequential
     schedule p0..p(n-1), sizing the multinomial bound that the reduction
     factor is measured against.  Retry loops can make counts schedule-
     dependent, so for such workloads the bound is a reference point, not
     a certified maximum. *)
  let ref_counts =
    let u = Driver.Incremental.create ~make:make_driver ~scripts () in
    let counts = Array.make (max n 1) 0 in
    for p = 0 to n - 1 do
      while List.mem p (Driver.Incremental.enabled u) do
        ignore (Driver.Incremental.advance u p);
        counts.(p) <- counts.(p) + 1
      done
    done;
    if n = 0 then [||] else counts
  in
  (* Crash moves add schedules outside the crash-free interleaving count,
     so the multinomial is not an upper bound for a crash-augmented
     search; report no bound rather than a misleading one. *)
  let schedule_bound =
    if crash_bound > 0 then None else count_schedules_opt ~n_actions:ref_counts
  in
  let u = Driver.Incremental.create ~on_crash ~make:make_driver ~scripts () in
  (* One more slot than [max_depth]: a node at [max_depth] fills its
     child's sleep set before the child fails the depth check. *)
  let unvisited = new_frame 0 in
  let frames = Array.make (max_depth + 2) unvisited in
  let explored = ref 0 in
  let sleep_set_prunes = ref 0 in
  let preemption_prunes = ref 0 in
  let races_detected = ref 0 in
  let crashes_injected = ref 0 in
  let deepest = ref 0 in
  let violation = ref None in
  let frame_for j =
    if frames.(j) != unvisited then frames.(j)
    else begin
      let f = new_frame n in
      frames.(j) <- f;
      f
    end
  in
  (* Schedule the race reversal at [pre(event j)]: run the later event's
     process there if it was enabled, otherwise conservatively everything
     that was (Flanagan–Godefroid's backtrack-insertion rule). *)
  let insert_backtrack fj p =
    if not (mem p fj.f_done || mem p fj.f_backtrack) then
      if mem p fj.f_enabled then
        fj.f_backtrack <- fj.f_backtrack lor (1 lsl p)
      else fj.f_backtrack <- fj.f_backtrack lor fj.f_enabled
  in
  (* Compute the happens-before clock of the event just executed at depth
     [d] by [p] and detect reversible races against earlier events on the
     path.  [cv] starts from [p]'s program-order predecessor and absorbs,
     scanning backwards, the clock of every earlier conflicting event; an
     earlier event [j] by [q] races iff it conflicts and is not already
     ordered before this one (j+1 > cv.(q) at scan time). *)
  let update_clock_and_races d p fp fr =
    let cv = fr.f_clock in
    let rec find_po j =
      if j < 0 then Array.fill cv 0 n 0
      else
        let fj = frames.(j) in
        if fj.f_chosen = p then Array.blit fj.f_clock 0 cv 0 n
        else find_po (j - 1)
    in
    find_po (d - 1);
    (match fp with
    | None -> ()
    | Some fpi ->
        (* Only steps on the same cell can conflict: comparing cell ids
           first keeps the scan to one load and compare per event. *)
        let cell = fpi.Step.on.Cell.id in
        for j = d - 1 downto 0 do
          let fj = frames.(j) in
          let q = fj.f_chosen in
          if fj.f_cell = cell && q <> p then
            match fj.f_fp with
            | Some fpj when Step.conflicts fpj fpi ->
                if j + 1 > cv.(q) then begin
                  incr races_detected;
                  insert_backtrack fj p
                end;
                for r = 0 to n - 1 do
                  if fj.f_clock.(r) > cv.(r) then cv.(r) <- fj.f_clock.(r)
                done
            | _ -> ()
        done);
    cv.(p) <- d + 1
  in
  let rec node depth preemptions crashes =
    if depth > max_depth then
      failwith "Explore.dpor: branch exceeded max_depth";
    if depth > !deepest then deepest := depth;
    let enabled =
      List.fold_left
        (fun s p -> s lor (1 lsl p))
        0
        (Driver.Incremental.enabled u)
    in
    if enabled = 0 then begin
      incr explored;
      let history = Driver.history (Driver.Incremental.driver u) in
      if not (check history) then begin
        let path = Driver.Incremental.path u in
        violation := Some (path, history);
        raise (Found path)
      end;
      if !explored >= max_schedules then raise (Stop !explored)
    end
    else begin
      let fr = frame_for depth in
      let awake = enabled land lnot fr.f_sleep in
      (* Crash moves are extra children, explored unconditionally for
         every process with an in-flight operation (the budget aside):
         they never enter backtrack, done or sleep sets, a sound
         over-approximation — a crash is a distinct move of the same
         process, so a sleeping process's step move must not suppress
         it.  The configuration at this node is determined by the
         prefix, so the crashable set is computed on entry, while [u]
         still sits at [depth]. *)
      let crashable =
        if crashes >= crash_bound then 0
        else begin
          let d = Driver.Incremental.driver u in
          let s = ref 0 in
          for p = 0 to n - 1 do
            if mem p enabled && Driver.pending d p then s := !s lor (1 lsl p)
          done;
          !s
        end
      in
      if awake = 0 && crashable = 0 then incr sleep_set_prunes
      else begin
        let prev = if depth = 0 then -1 else frames.(depth - 1).f_chosen in
        (* Prefer continuing the previous process: keeps the schedule
           preemption-free by default, so a preemption bound prunes
           only genuine context switches. *)
        fr.f_enabled <- enabled;
        fr.f_backtrack <-
          (if awake = 0 then 0
           else if prev >= 0 && mem prev awake then 1 lsl prev
           else 1 lsl lowest awake);
        fr.f_done <- 0;
        fr.f_moved <- 0;
        set_move fr (-1) None;
        let child = frame_for (depth + 1) in
        let rec loop () =
          let todo = fr.f_backtrack land lnot fr.f_done land lnot fr.f_sleep in
          if todo <> 0 then begin
            let p = lowest todo in
            fr.f_done <- fr.f_done lor (1 lsl p);
            let preemptions' =
              if prev >= 0 && p <> prev && mem prev enabled then
                preemptions + 1
              else preemptions
            in
            (match preemption_bound with
            | Some b when preemptions' > b -> incr preemption_prunes
            | _ ->
                if Driver.Incremental.depth u <> depth then
                  Driver.Incremental.rewind u ~depth;
                let fp = Driver.Incremental.advance u p in
                set_move fr p fp;
                update_clock_and_races depth p fp fr;
                inherit_sleep fr child ~woken:(-1) fp;
                node (depth + 1) preemptions' crashes;
                fr.f_moved <- fr.f_moved lor (1 lsl p);
                fr.f_moved_fp.(p) <- fp);
            loop ()
          end
        in
        if awake = 0 then incr sleep_set_prunes else loop ();
        (* The crash children.  A crash touches no shared memory (its
           footprint is empty), so it commutes with every other
           process's moves: the inherited sleep entries stay valid —
           except the crashed process's own, which is a different move
           of the same process and must wake. *)
        for p = 0 to n - 1 do
          if mem p crashable then begin
            if Driver.Incremental.depth u <> depth then
              Driver.Incremental.rewind u ~depth;
            Driver.Incremental.crash u p;
            incr crashes_injected;
            set_move fr p None;
            update_clock_and_races depth p None fr;
            inherit_sleep fr child ~woken:p None;
            node (depth + 1) preemptions (crashes + 1)
          end
        done
      end
    end
  in
  let verdict =
    match node 0 0 0 with
    | () -> Ok !explored
    | exception Stop k -> Budget_exhausted k
    | exception Found _ -> (
        match !violation with
        | Some (path, history) -> Violation (path, history)
        | None -> assert false)
  in
  let istats = Driver.Incremental.stats u in
  {
    verdict;
    stats =
      {
        explored = !explored;
        schedule_bound;
        sleep_set_prunes = !sleep_set_prunes;
        preemption_prunes = !preemption_prunes;
        races_detected = !races_detected;
        crashes_injected = !crashes_injected;
        max_depth_reached = !deepest;
        rebuilds = istats.Driver.Incremental.rebuilds;
        actions_executed = istats.Driver.Incremental.actions_executed;
        actions_replayed = istats.Driver.Incremental.actions_replayed;
      };
  }
