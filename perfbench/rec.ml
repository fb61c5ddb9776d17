(* Recording helpers shared by the three workloads: the metric sink,
   exact percentiles over preallocated sample arrays, and the span
   recorder of traced runs.  Nothing here allocates on a timed path. *)

let now = Aba_obs.Clock.now_ns

(* ----- metric sink ----- *)

let metrics : (string * float * string) list ref = ref []
let context : (string * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics
let note key v = context := (key, v) :: !context

(* Time spent in constructors, summed into [setup_s] and kept per phase
   so that [<phase>.setup_s] shows which structure a set-up cost
   belongs to. *)
let setup_total = ref 0.0
let setup_by_phase : (string * float) list ref = ref []

let timed_setup phase f =
  let t0 = now () in
  let x = f () in
  let s = float_of_int (now () - t0) *. 1e-9 in
  setup_total := !setup_total +. s;
  setup_by_phase := (phase, s) :: !setup_by_phase;
  x

(* ----- exact percentiles ----- *)

(* The benchmark's own buffers live outside the OCaml heap, so the
   garbage collector never scans them and [heap_mb] measures the
   program, not the benchmark's inputs and samples. *)
type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let buf n : buf =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill b 0;
  b

(* Sample buffer: sized during set-up, filled on the timed path, sorted
   after the run; samples past the capacity are not kept. *)
type samples = { data : buf; mutable len : int }

let samples cap = { data = buf cap; len = 0 }

let push_sample s v =
  if s.len < Bigarray.Array1.dim s.data then begin
    Bigarray.Array1.unsafe_set s.data s.len v;
    s.len <- s.len + 1
  end

let sorted_of_list (l : samples list) =
  let out = Array.make (List.fold_left (fun a s -> a + s.len) 0 l) 0 in
  let _ =
    List.fold_left
      (fun off s ->
        for i = 0 to s.len - 1 do
          out.(off + i) <- s.data.{i}
        done;
        off + s.len)
      0 l
  in
  Array.sort (fun (a : int) b -> compare a b) out;
  out

(* Percentile [p] of a sorted array: the mean of the samples within
   n/2000 ranks of the nearest rank, so that samples in whole
   nanoseconds still give a value that is not stuck on one integer;
   below 2000 samples, the nearest-rank sample.  [0.] when empty. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let k = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
    let m = n / 2000 in
    let lo = max 0 (k - m) and hi = min (n - 1) (k + m) in
    let acc = ref 0 in
    for i = lo to hi do
      acc := !acc + sorted.(i)
    done;
    float_of_int !acc /. float_of_int (hi - lo + 1)
  end

(* Share of a sorted array at or below [limit]. *)
let share_within sorted limit =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    (* first index whose value exceeds [limit] *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) <= limit then lo := mid + 1 else hi := mid
    done;
    float_of_int !lo /. float_of_int n
  end

let median_float l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ----- spans -----

   One recorder per domain, preallocated.  A span has a name, start and
   end time, the index of its parent span in the same recorder (-1 for a
   root) and a request id.  Spans past the capacity are counted as
   dropped, never reallocated. *)

let span_names =
  [|
    "svc.request"; "apps.call"; "runtime.shard_call"; "churn.phase";
    "dpor.config"; "sim.make"; "spec.check";
  |]

let sp_request = 0
let sp_call = 1
let sp_shard = 2
let sp_phase = 3
let sp_config = 4
let sp_make = 5
let sp_check = 6

type spans = {
  name : buf;
  start : buf;
  stop : buf;
  parent : buf;
  req : buf;
  mutable n : int;
  mutable cur : int;
  mutable cur_req : int;
  mutable dropped : int;
}

let spans cap =
  {
    name = buf cap;
    start = buf cap;
    stop = buf cap;
    parent = buf cap;
    req = buf cap;
    n = 0;
    cur = -1;
    cur_req = 0;
    dropped = 0;
  }

let enter_at t name start =
  let i = t.n in
  if i < Bigarray.Array1.dim t.name then begin
    t.n <- i + 1;
    t.name.{i} <- name;
    t.parent.{i} <- t.cur;
    t.req.{i} <- t.cur_req;
    t.start.{i} <- start;
    t.cur <- i;
    i
  end
  else begin
    t.dropped <- t.dropped + 1;
    -1
  end

let enter t name = enter_at t name (now ())

let leave t i =
  if i >= 0 then begin
    t.stop.{i} <- now ();
    t.cur <- t.parent.{i}
  end

(* Self time of every span: its duration minus the durations of its
   children.  Children run on the parent's domain, one after another, so
   the time they cover is their sum. *)
let self_times t =
  let self = Array.init t.n (fun i -> t.stop.{i} - t.start.{i}) in
  for i = 0 to t.n - 1 do
    let p = t.parent.{i} in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.{i} - t.start.{i})
  done;
  self

(* Durations (or self times) of the spans called [name], as samples. *)
let durations ?self t name =
  let s = samples t.n in
  for i = 0 to t.n - 1 do
    if t.name.{i} = name then
      push_sample s
        (match self with
        | Some a -> a.(i)
        | None -> t.stop.{i} - t.start.{i})
  done;
  s

let total_ns t name =
  let s = durations t name in
  let acc = ref 0 in
  for i = 0 to s.len - 1 do
    acc := !acc + s.data.{i}
  done;
  !acc

(* Chrome trace-event JSON (opens in chrome://tracing or Perfetto): the
   first [limit] spans of each recorder, one thread per recorder. *)
let write_trace path (recs : spans array) ~limit =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  let origin =
    Array.fold_left
      (fun m t -> if t.n > 0 then min m t.start.{0} else m)
      max_int recs
  in
  Array.iteri
    (fun tid t ->
      for i = 0 to min t.n limit - 1 do
        if not !first then output_char oc ',';
        first := false;
        Printf.fprintf oc
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"parent\":%d}}"
          span_names.(t.name.{i}) tid
          (float_of_int (t.start.{i} - origin) /. 1e3)
          (float_of_int (t.stop.{i} - t.start.{i}) /. 1e3)
          t.req.{i} t.parent.{i}
      done)
    recs;
  output_string oc "]}\n";
  close_out oc
