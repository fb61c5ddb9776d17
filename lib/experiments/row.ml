module Obs = Aba_obs.Obs
module Histogram = Aba_obs.Histogram

type value = Str of string | Int of int | Float of float | Bool of bool
type t = (string * value) list

let percentiles h =
  let s = Histogram.summarize h in
  [
    ("p50_ns", Int s.Histogram.p50);
    ("p90_ns", Int s.Histogram.p90);
    ("p99_ns", Int s.Histogram.p99);
    ("p999_ns", Int s.Histogram.p999);
  ]

let of_obs ?(tail = []) obs head =
  List.filter_map
    (fun kind ->
      let count = Obs.op_count obs kind in
      match Obs.histogram obs kind with
      | Some h when count > 0 ->
          Some
            (head
            @ [
                ("kind", Str (Obs.kind_name kind));
                ("count", Int count);
                ("retries", Int (Obs.retry_count obs kind));
              ]
            @ percentiles h @ tail)
      | Some _ | None -> None)
    Obs.all_kinds

let json_of = function
  | Str s -> Json.Str s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let to_json r = Json.Obj (List.map (fun (k, v) -> (k, json_of v)) r)

let cell = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float f when Float.abs f >= 100. -> Printf.sprintf "%.0f" f
  | Float f -> Printf.sprintf "%.3f" f
  | Bool b -> string_of_bool b

let to_string r =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ cell v) r)

let print_table = function
  | [] -> print_endline "  (no rows)"
  | first :: _ as rows ->
      let labels = List.map fst first in
      let cells r =
        List.map
          (fun k -> Option.fold ~none:"-" ~some:cell (List.assoc_opt k r))
          labels
      in
      let body = List.map cells rows in
      let widths =
        List.fold_left
          (List.map2 (fun w c -> max w (String.length c)))
          (List.map String.length labels)
          body
      in
      let numeric =
        List.map
          (fun (_, v) ->
            match v with Int _ | Float _ -> true | Str _ | Bool _ -> false)
          first
      in
      let pad (w, numeric) c =
        if numeric then Printf.sprintf " %*s" w c
        else Printf.sprintf " %-*s" w c
      in
      (* Trailing padding of a left-aligned last column is trimmed. *)
      let line cs =
        let s =
          " " ^ String.concat "" (List.map2 pad (List.combine widths numeric) cs)
        in
        let n = ref (String.length s) in
        while !n > 0 && s.[!n - 1] = ' ' do
          decr n
        done;
        print_endline (String.sub s 0 !n)
      in
      List.iter line (labels :: body)

let find r k =
  match List.assoc_opt k r with
  | Some v -> v
  | None -> invalid_arg ("missing " ^ k)

let str r k =
  match find r k with Str s -> s | _ -> invalid_arg (k ^ " not a string")

let int r k =
  match find r k with Int i -> i | _ -> invalid_arg (k ^ " not an int")

let num r k =
  match find r k with
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> invalid_arg (k ^ " not a number")

let bool r k =
  match find r k with Bool b -> b | _ -> invalid_arg (k ^ " not a bool")

type check = t list -> string list

let holds p r = try p r with Invalid_argument _ -> false

let all what p rows =
  List.filter_map
    (fun r -> if holds p r then None else Some (what ^ ": " ^ to_string r))
    rows

let exists what p rows = if List.exists (holds p) rows then [] else [ what ]
let non_empty rows = if rows = [] then [ "no rows emitted" ] else []

let keys ks rows =
  List.concat_map
    (fun k -> all ("missing key " ^ k) (fun r -> List.mem_assoc k r) rows)
    ks

let monotone =
  all "percentiles not monotone" (fun r ->
      let p k = int r k in
      p "p50_ns" <= p "p90_ns" && p "p90_ns" <= p "p99_ns"
      && p "p99_ns" <= p "p999_ns")

let values_are ?(where = fun _ -> true) k expected rows =
  let seen =
    List.sort_uniq compare
      (List.filter_map
         (fun r ->
           match List.assoc_opt k r with
           | Some (Str s) when holds where r -> Some s
           | _ -> None)
         rows)
  in
  if seen = List.sort_uniq compare expected then []
  else
    [
      Printf.sprintf "%s values {%s}, expected {%s}" k (String.concat "," seen)
        (String.concat "," expected);
    ]

let percentile_rows ks =
  [
    non_empty;
    keys ks;
    all "empty row (count = 0)" (fun r -> int r "count" > 0);
    monotone;
  ]
