(* Everything [next] touches is preallocated: a pool belongs to one
   process, so its scratch bitmap and its ring can be reused call after
   call without any sharing between domains. *)
type t = {
  n : int;
  ceiling : int;
  mutable cursor : int;
  not_available : int array;
      (** per announce index: own seq currently announced there, or [-1] *)
  used : int array;
      (** [usedQ] as a ring of [n+1] entries, oldest at [oldest]; [-1]
          stands for bottom *)
  mutable oldest : int;
  excluded : bool array;  (** scratch: [ceiling + 1] exclusion flags *)
}

exception Exhausted

let create ?ceiling ~n () =
  if n <= 0 then invalid_arg "Seq_pool.create: n must be positive";
  let ceiling = match ceiling with Some c -> c | None -> (2 * n) + 1 in
  if ceiling < 0 then invalid_arg "Seq_pool.create: negative ceiling";
  {
    n;
    ceiling;
    cursor = 0;
    not_available = Array.make n (-1);
    used = Array.make (n + 1) (-1);
    oldest = 0;
    excluded = Array.make (ceiling + 1) false;
  }

let ceiling t = t.ceiling

let rec first_free t s =
  if s > t.ceiling then raise Exhausted
  else if t.excluded.(s) then first_free t (s + 1)
  else s

let next t ~me ~read_announce =
  let c = t.cursor in
  (match read_announce c with
  | Some (r, s_r) when r = me -> t.not_available.(c) <- s_r
  | Some _ | None -> t.not_available.(c) <- -1);
  t.cursor <- (c + 1) mod t.n;
  (* |na| <= n and |usedQ| = n+1 exclude at most 2n+1 of the 2n+2
     candidates, so a free number always exists.  One pass over both
     exclusion sets keeps the call linear in n. *)
  let excluded = t.excluded in
  Array.fill excluded 0 (t.ceiling + 1) false;
  for i = 0 to t.n do
    let u = t.used.(i) in
    if u >= 0 then excluded.(u) <- true
  done;
  for i = 0 to t.n - 1 do
    let s = t.not_available.(i) in
    if s >= 0 then excluded.(s) <- true
  done;
  let s = first_free t 0 in
  (* Enqueue [s] and drop the oldest entry: overwrite it in place and
     advance, so [s] becomes the newest. *)
  t.used.(t.oldest) <- s;
  t.oldest <- (t.oldest + 1) mod (t.n + 1);
  s
