(* The description is a thunk: domains are built for every simulated
   instance, and rendering one costs more than building it, while it is
   read only by an error message or a space table. *)
type 'a t = { mem : 'a -> bool; size : int option; describe : unit -> string }

let mem d v = d.mem v
let size d = d.size
let describe d = d.describe ()

let check ~what d v =
  if not (d.mem v) then
    invalid_arg
      (Printf.sprintf "Bounded.check: %s received a value outside domain %s"
         what (d.describe ()))

let make ?size ~describe mem = { mem; size; describe }

let unbounded ~describe =
  { mem = (fun _ -> true); size = None; describe = (fun () -> describe) }

let bool =
  { mem = (fun _ -> true); size = Some 2; describe = (fun () -> "bool") }

let int_range ~lo ~hi =
  if hi < lo then invalid_arg "Bounded.int_range: hi < lo";
  {
    mem = (fun v -> lo <= v && v <= hi);
    size = Some (hi - lo + 1);
    describe = (fun () -> Printf.sprintf "[%d..%d]" lo hi);
  }

let int_mod m =
  if m <= 0 then invalid_arg "Bounded.int_mod: modulus must be positive";
  int_range ~lo:0 ~hi:(m - 1)

let opt_size = function None -> None | Some s -> Some (s + 1)

let option d =
  {
    mem = (function None -> true | Some v -> d.mem v);
    size = opt_size d.size;
    describe = (fun () -> d.describe () ^ " option");
  }

let mul_size a b =
  match (a, b) with Some a, Some b -> Some (a * b) | _ -> None

let pair da db =
  {
    mem = (fun (a, b) -> da.mem a && db.mem b);
    size = mul_size da.size db.size;
    describe =
      (fun () -> Printf.sprintf "(%s * %s)" (da.describe ()) (db.describe ()));
  }

let triple da db dc =
  {
    mem = (fun (a, b, c) -> da.mem a && db.mem b && dc.mem c);
    size = mul_size da.size (mul_size db.size dc.size);
    describe =
      (fun () ->
        Printf.sprintf "(%s * %s * %s)" (da.describe ()) (db.describe ())
          (dc.describe ()));
  }

let bits ~width =
  if width < 0 || width > 61 then invalid_arg "Bounded.bits: bad width";
  {
    mem = (fun v -> 0 <= v && v < 1 lsl width);
    size = Some (1 lsl width);
    describe = (fun () -> Printf.sprintf "%d-bit mask" width);
  }
