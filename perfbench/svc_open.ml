(* svc-open: an open loop into [Aba_apps.Service.Stack_service].

   Why this workload: it is the end-to-end path a user of the service
   sees, timed from each request's intended arrival, so a stall delays
   every request queued behind it.  7 in 8 requests go to one hot key,
   and pops that find their home shard empty go through the router's
   steal path, so the apps and runtime layers do the work while
   reclaim, queue, sim and spec stay idle.

   One client domain sends Poisson arrivals at a nominal 1 Mops/s, about
   a third of the rate the ladder finds the service sustaining.  A
   second client domain would make both share the hot shard head, but
   with two spinning domains on a two-core host p99 spread over 0.40 of
   its median across five seeds (its bound is 0.25) and the sustained
   rate over 0.19, so contention is left to a later workload on a
   larger machine.  A fixed ladder of higher rates finds the highest
   rate served without a growing backlog. *)

module S = Aba_apps.Service
module H = Aba_runtime.Harness
module T = Aba_runtime.Rt_treiber

let clients = 1
let shards = 4
let capacity = 4096
let keys = 4096
let hot_key = 0
let slo_ns = 10_000

(* Offered rates in kops/s.  The nominal rate first; the ladder above it
   is fixed so that runs of different commits try the same rates. *)
let nominal_kops = 1000

let ladder_kops =
  [| 1250; 1500; 1750; 2000; 2250; 2500; 2750; 3000; 3300; 3600; 4000;
     4500; 5000; 6000 |]

(* A growing backlog fails both the completed share and the tail
   latency test of a rung (see [rung_served]). *)
let min_completed_share = 0.97

type inputs = {
  off : Rec.buf;  (** cumulative arrival offsets at the nominal rate, ns *)
  key : Rec.buf;
  value : Rec.buf;  (** unique per client; a phase adds its own base *)
  res : Rec.buf;  (** push: 1 ok / 0 refused; pop: the value or -1 *)
  lat : Rec.buf;  (** completion minus intended arrival, ns *)
  late : Rec.buf;  (** call start minus intended arrival, ns (traced) *)
}

(* Per-client rate at the nominal rate: one request per [gap_ns] ns. *)
let gap_ns = clients * 1_000_000 / nominal_kops

let make_inputs ~seed ~pid ~n ~traced =
  let rng = Random.State.make [| seed; pid; 0x5e0 |] in
  let off = Rec.buf n in
  let t = ref 0.0 in
  for i = 0 to n - 1 do
    let u = 1.0 -. Random.State.float rng 1.0 in
    t := !t -. (log u *. float_of_int gap_ns);
    off.{i} <- int_of_float !t
  done;
  let key = Rec.buf n and value = Rec.buf n in
  for i = 0 to n - 1 do
    key.{i} <-
      (if Random.State.int rng 8 < 7 then hot_key else Random.State.int rng keys);
    value.{i} <- (i lsl 1) lor pid
  done;
  {
    off;
    key;
    value;
    res = Rec.buf n;
    lat = Rec.buf n;
    late = Rec.buf (if traced then n else 0);
  }

type service = {
  push : pid:int -> key:int -> int -> bool;
  pop : pid:int -> key:int -> int option;
  stats : unit -> S.Stack_router.stats;
}

(* The traced service: the same router functor over a SHARD that times
   every call into its [Rt_treiber] shard made inside a request as a
   [runtime.shard_call] span on the calling domain's recorder (the
   drain after a phase is not recorded). *)
module Timed_shard = struct
  type t = { stack : T.t; recs : Rec.spans array }

  let push t ~pid v =
    let r = t.recs.(pid) in
    if r.Rec.cur < 0 then T.push t.stack ~pid v
    else begin
      let i = Rec.enter r Rec.sp_shard in
      let ok = T.push t.stack ~pid v in
      Rec.leave r i;
      ok
    end

  let pop t ~pid =
    let r = t.recs.(pid) in
    if r.Rec.cur < 0 then T.pop t.stack ~pid
    else begin
      let i = Rec.enter r Rec.sp_shard in
      let v = T.pop t.stack ~pid in
      Rec.leave r i;
      v
    end
end

module Timed_router = S.Shard_router (Timed_shard)

let untraced_service () =
  let svc =
    S.Stack_service.create ~steal:true ~combining:false ~shards ~capacity
      ~n:clients ()
  in
  {
    push = (fun ~pid ~key v -> S.Stack_service.push svc ~pid ~key v);
    pop = (fun ~pid ~key -> S.Stack_service.pop svc ~pid ~key);
    stats = (fun () -> S.Stack_service.stats svc);
  }

(* Mirrors [Stack_service.create]'s defaults: [Tag_bits 16] shards. *)
let traced_service recs =
  let arr =
    Array.init shards (fun _ ->
        {
          Timed_shard.stack =
            T.create ~protection:(T.Tag_bits 16) ~capacity ~n:clients ();
          recs;
        })
  in
  let r =
    Timed_router.create ~steal:true ~combining:false ~shards:arr ~n:clients ()
  in
  let stats () =
    let s = Timed_router.stats r in
    {
      S.Stack_router.steals = s.Timed_router.steals;
      stolen = s.Timed_router.stolen;
      spills = s.Timed_router.spills;
    }
  in
  {
    push = (fun ~pid ~key v -> Timed_router.push r ~pid ~key v);
    pop = (fun ~pid ~key -> Timed_router.pop r ~pid ~key);
    stats;
  }

(* The timed loop: reads only the preallocated inputs, spins on the
   clock until each request is due, and never waits for a late one. *)
let client_loop svc (inp : inputs) ~pid ~base ~kops ~n ~vbase =
  let push = svc.push and pop = svc.pop in
  for i = 0 to n - 1 do
    let due = base + (inp.off.{i} * nominal_kops / kops) in
    while Rec.now () < due do
      ()
    done;
    let k = inp.key.{i} in
    (if i land 1 = 0 then
       inp.res.{i} <- (if push ~pid ~key:k (vbase + inp.value.{i}) then 1 else 0)
     else
       inp.res.{i} <- (match pop ~pid ~key:k with Some v -> v | None -> -1));
    inp.lat.{i} <- Rec.now () - due
  done

let traced_client_loop svc (inp : inputs) (r : Rec.spans) ~pid ~base ~kops
    ~n ~vbase =
  let push = svc.push and pop = svc.pop in
  for i = 0 to n - 1 do
    let due = base + (inp.off.{i} * nominal_kops / kops) in
    while Rec.now () < due do
      ()
    done;
    r.cur_req <- (i lsl 1) lor pid;
    let req = Rec.enter_at r Rec.sp_request due in
    let call = Rec.enter r Rec.sp_call in
    if call >= 0 then inp.late.{i} <- r.start.{call} - due;
    let k = inp.key.{i} in
    (if i land 1 = 0 then
       inp.res.{i} <- (if push ~pid ~key:k (vbase + inp.value.{i}) then 1 else 0)
     else
       inp.res.{i} <- (match pop ~pid ~key:k with Some v -> v | None -> -1));
    Rec.leave r call;
    Rec.leave r req;
    inp.lat.{i} <- Rec.now () - due
  done

type phase = {
  n : int;  (** requests per client *)
  words : float;  (** minor words allocated by the clients *)
}

(* One phase at [kops]: the clients start at a common base time. *)
let run_phase ?recs svc inputs ~kops ~n ~vbase =
  let start = Atomic.make 0 in
  let words =
    H.run_domains ~n:clients (fun pid ->
        if pid = 0 then Atomic.set start (Rec.now () + 200_000)
        else
          while Atomic.get start = 0 do
            Domain.cpu_relax ()
          done;
        let base = Atomic.get start in
        let w0 = Gc.minor_words () in
        (match recs with
        | None -> client_loop svc inputs.(pid) ~pid ~base ~kops ~n ~vbase
        | Some recs ->
            traced_client_loop svc inputs.(pid) recs.(pid) ~pid ~base ~kops ~n
              ~vbase);
        Gc.minor_words () -. w0)
  in
  { n; words = Array.fold_left ( +. ) 0.0 words }

(* After a phase: drain the service and audit the phase's pushed,
   popped and remaining values.  Draining resets the service, so every
   phase is audited on its own.  Returns refused pushes and audit
   mismatches. *)
let drain svc =
  let remaining = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    for key = 0 to 63 do
      let rec go () =
        match svc.pop ~pid:0 ~key with
        | Some v ->
            remaining := v :: !remaining;
            progress := true;
            go ()
        | None -> ()
      in
      go ()
    done
  done;
  !remaining

let audit svc inputs (p : phase) ~vbase =
  let refused = ref 0 and pushed = ref [] and popped = ref [] in
  Array.iter
    (fun (inp : inputs) ->
      for i = 0 to p.n - 1 do
        if i land 1 = 0 then begin
          if inp.res.{i} = 1 then pushed := (vbase + inp.value.{i}) :: !pushed
          else incr refused
        end
        else if inp.res.{i} >= 0 then popped := inp.res.{i} :: !popped
      done)
    inputs;
  let remaining = drain svc in
  match H.check_multiset ~pushed:!pushed ~popped:!popped ~remaining with
  | Ok () -> (!refused, 0)
  | Error e ->
      prerr_endline ("svc-open audit failed: " ^ e);
      (!refused, 1)

(* A rung passes when it completes at least [min_completed_share] of its
   offered throughput and the median latency of its last tenth of
   requests is within the SLO.  Returns the completed throughput in
   kops/s, or [None] for a failed rung. *)
let rung_served inputs (p : phase) ~kops =
  let last_due = ref 0 and last_done = ref 0 in
  let tail = Rec.samples (clients * ((p.n / 10) + 1)) in
  Array.iter
    (fun (inp : inputs) ->
      let d = inp.off.{p.n - 1} * nominal_kops / kops in
      last_due := max !last_due d;
      for i = 0 to p.n - 1 do
        last_done :=
          max !last_done ((inp.off.{i} * nominal_kops / kops) + inp.lat.{i});
        if i >= p.n - (p.n / 10) then Rec.push_sample tail inp.lat.{i}
      done)
    inputs;
  let tail = Rec.sorted_of_list [ tail ] in
  if
    float_of_int !last_due >= min_completed_share *. float_of_int !last_done
    && Rec.pct tail 0.5 <= float_of_int slo_ns
  then Some (float_of_int (clients * p.n) *. 1e6 /. float_of_int !last_done)
  else None

(* The latency percentile [p] of every [window_ns] window of intended
   arrivals, windows with fewer than ten samples past [p] left out.  A
   host stall of a few milliseconds (several a second on a small shared
   VM) decides the whole run's 99th percentile by itself; the median
   window shows the tail that the service adds between stalls. *)
let window_ns = 20_000_000

let window_pcts inputs ~n ~p =
  let last =
    Array.fold_left (fun m (inp : inputs) -> max m inp.off.{n - 1}) 0 inputs
  in
  let nw = (last / window_ns) + 1 in
  let count = Array.make nw 0 in
  Array.iter
    (fun (inp : inputs) ->
      for i = 0 to n - 1 do
        let w = inp.off.{i} / window_ns in
        count.(w) <- count.(w) + 1
      done)
    inputs;
  let per = Array.map Rec.samples count in
  Array.iter
    (fun (inp : inputs) ->
      for i = 0 to n - 1 do
        Rec.push_sample per.(inp.off.{i} / window_ns) inp.lat.{i}
      done)
    inputs;
  Array.to_list per
  |> List.filter (fun s -> float_of_int s.Rec.len *. (1.0 -. p) >= 10.0)
  |> List.map (fun s -> Rec.pct (Rec.sorted_of_list [ s ]) p)

let per_client ~kops ~seconds =
  int_of_float (seconds *. float_of_int kops *. 1e3 /. float_of_int clients)

type result = { attempted : int; failed : int; correct : bool }

(* [seconds] is this process's share of the run.  Untraced: the
   nominal phase, then the ladder.  Traced: the nominal phase only, with
   spans.  Every phase is drained and audited after it ends. *)
let run ~seed ~seconds ~traced ~spans_out =
  let nominal_s = if traced then 0.8 *. seconds else 0.4 *. seconds in
  let rung_s = 0.05 in
  let n_nominal = per_client ~kops:nominal_kops ~seconds:nominal_s in
  let n_rung k = per_client ~kops:k ~seconds:rung_s in
  let n_max =
    Array.fold_left (fun m k -> max m (n_rung k)) n_nominal ladder_kops
  in
  let inputs =
    Array.init clients (fun pid -> make_inputs ~seed ~pid ~n:n_max ~traced)
  in
  let recs =
    if traced then
      Some (Array.init clients (fun _ -> Rec.spans (8 * n_nominal)))
    else None
  in
  let svc =
    Rec.timed_setup "svc" (fun () ->
        match recs with
        | None -> untraced_service ()
        | Some recs -> traced_service recs)
  in
  let refused = ref 0 and mismatches = ref 0 and attempted = ref 0 in
  let phase_no = ref 0 in
  let run_audited ?recs ?(before_audit = ignore) ~kops ~n () =
    incr phase_no;
    let vbase = !phase_no lsl 40 in
    let p = run_phase ?recs svc inputs ~kops ~n ~vbase in
    before_audit p;
    attempted := !attempted + (clients * n);
    let r, m = audit svc inputs p ~vbase in
    refused := !refused + r;
    mismatches := !mismatches + m;
    p
  in
  let gcs0 = (Gc.quick_stat ()).Gc.minor_collections in
  let gcs = ref 0 and heap_mb = ref 0.0 in
  let nominal =
    run_audited ?recs ~kops:nominal_kops ~n:n_nominal
      ~before_audit:(fun _ ->
        let st = Gc.quick_stat () in
        gcs := st.Gc.minor_collections - gcs0;
        heap_mb :=
          float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6)
      ()
  in
  (* Nominal-phase latency, exact; refused pushes miss the SLO. *)
  let lat = Rec.samples (clients * n_nominal) in
  let within = ref 0 in
  Array.iter
    (fun (inp : inputs) ->
      for i = 0 to n_nominal - 1 do
        Rec.push_sample lat inp.lat.{i};
        let refused = i land 1 = 0 && inp.res.{i} = 0 in
        if (not refused) && inp.lat.{i} <= slo_ns then incr within
      done)
    inputs;
  let windows = window_pcts inputs ~n:n_nominal ~p:0.99 in
  let lat = Rec.sorted_of_list [ lat ] in
  let late =
    match recs with
    | None -> [||]
    | Some _ ->
        let s = Rec.samples (clients * n_nominal) in
        Array.iter
          (fun (inp : inputs) ->
            for i = 0 to n_nominal - 1 do
              Rec.push_sample s inp.late.{i}
            done)
          inputs;
        Rec.sorted_of_list [ s ]
  in
  (* Ladder: walk up; a failing rung gets one retry (a host stall can
     fail a single rung), and the walk stops at the second failure. *)
  let max_served = ref 0.0 in
  if not traced then begin
    (* a cap, not a target: the walk normally stops at a failure *)
    let budget_end = Rec.now () + int_of_float (max 1.0 seconds *. 1e9) in
    let stop = ref false in
    Array.iter
      (fun kops ->
        if (not !stop) && Rec.now () < budget_end then begin
          let n = n_rung kops in
          let try_rung () =
            rung_served inputs (run_audited ~kops ~n ()) ~kops
          in
          match try_rung () with
          | Some r -> max_served := r
          | None -> (
              match try_rung () with
              | Some r -> max_served := r
              | None -> stop := true)
        end)
      ladder_kops
  end;
  let reqs = Array.length lat in
  let us a p = Rec.pct a p /. 1e3 in
  Rec.metric "p50_us" "us" (us lat 0.5);
  Rec.metric "p99_us" "us" (Rec.median_float windows /. 1e3);
  Rec.metric "slo_frac" "ratio" (float_of_int !within /. float_of_int reqs);
  let nominal_done =
    Array.fold_left
      (fun m (inp : inputs) ->
        let last = ref m in
        for i = 0 to n_nominal - 1 do
          last := max !last (inp.off.{i} + inp.lat.{i})
        done;
        !last)
      0 inputs
  in
  (* The ladder runs only untraced: the throughput served at its highest
     passing rung, or if none passed, at the nominal rate. *)
  if not traced then begin
    Rec.metric "ops_per_s" "1/s"
      (if !max_served > 0.0 then !max_served *. 1e3
       else float_of_int reqs *. 1e9 /. float_of_int (max 1 nominal_done));
    Rec.metric "verdict_s" "s" (float_of_int nominal_done *. 1e-9)
  end;
  Rec.metric "heap_mb" "MB" !heap_mb;
  Rec.metric "svc.whole_p99_us" "us" (us lat 0.99);
  Rec.note "samples" (string_of_int reqs);
  (* run.py pools the windows of all processes of a run *)
  Rec.note "windows.p99_us"
    (String.concat " "
       (List.map (fun x -> Printf.sprintf "%.3f" (x /. 1e3)) windows));
  Rec.note "domains" (string_of_int clients);
  (match recs with
  | None -> ()
  | Some recs ->
      let selfs = Array.map Rec.self_times recs in
      let gather ?(self = false) name =
        Rec.sorted_of_list
          (Array.to_list
             (Array.mapi
                (fun d r ->
                  Rec.durations
                    ?self:(if self then Some selfs.(d) else None)
                    r name)
                recs))
      in
      let call = gather Rec.sp_call in
      let router_self = gather ~self:true Rec.sp_call in
      let shard = gather Rec.sp_shard in
      let secs a = float_of_int (Array.fold_left ( + ) 0 a) *. 1e-9 in
      let ns a p = Rec.pct a p in
      let st = svc.stats () in
      let fr = float_of_int reqs in
      Rec.metric "svc.late_us.p50" "us" (us late 0.5);
      Rec.metric "svc.late_us.p99" "us" (us late 0.99);
      Rec.metric "apps.call_ns.p50" "ns" (ns call 0.5);
      Rec.metric "apps.call_ns.p99" "ns" (ns call 0.99);
      Rec.metric "apps.router_self_ns.p50" "ns" (ns router_self 0.5);
      Rec.metric "runtime.shard_call_ns.p50" "ns" (ns shard 0.5);
      Rec.metric "runtime.shard_call_ns.p99" "ns" (ns shard 0.99);
      Rec.metric "apps.call_s" "s" (secs call);
      Rec.metric "apps.router_self_s" "s" (secs router_self);
      Rec.metric "runtime.shard_call_s" "s" (secs shard);
      Rec.metric "apps.shard_calls_per_req" "ratio"
        (float_of_int (Array.length shard) /. fr);
      Rec.metric "apps.steals_per_kreq" "count"
        (float_of_int st.S.Stack_router.steals *. 1e3 /. fr);
      Rec.metric "apps.stolen_per_steal" "ratio"
        (if st.S.Stack_router.steals = 0 then 0.0
         else
           float_of_int st.S.Stack_router.stolen
           /. float_of_int st.S.Stack_router.steals);
      Rec.metric "apps.spills" "count" (float_of_int st.S.Stack_router.spills);
      Rec.metric "gc.minor_words_per_req" "words" (nominal.words /. fr);
      Rec.metric "gc.minor_gcs" "count" (float_of_int !gcs);
      Rec.metric "trace.dropped_spans" "count"
        (float_of_int
           (Array.fold_left (fun a r -> a + r.Rec.dropped) 0 recs));
      Option.iter
        (fun path -> Rec.write_trace path recs ~limit:20_000)
        spans_out);
  {
    attempted = !attempted;
    failed = !refused + !mismatches;
    correct = !mismatches = 0;
  }
