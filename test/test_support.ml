(** Shared helpers for the test suites — thin wrappers over the
    {!Aba_experiments.Workloads} harness plus Alcotest-flavoured checks. *)

module Workloads = Aba_experiments.Workloads

module Aba_check = Aba_spec.Lin_check.Make (Aba_spec.Aba_register_spec)
module Llsc_check = Aba_spec.Lin_check.Make (Aba_spec.Llsc_spec)

let apply_aba = Workloads.apply_aba
let apply_llsc = Workloads.apply_llsc
let aba_random_history = Workloads.aba_random_history
let llsc_random_history = Workloads.llsc_random_history

let pp_aba_history h = Format.asprintf "%a" Aba_check.pp_history h
let pp_llsc_history h = Format.asprintf "%a" Llsc_check.pp_history h

let check_linearizable_aba ~n h =
  if not (Aba_check.check_ok ~n h) then
    Alcotest.failf "history not linearizable:@.%s" (pp_aba_history h)

let check_linearizable_llsc ~n h =
  if not (Llsc_check.check_ok ~n h) then
    Alcotest.failf "history not linearizable:@.%s" (pp_llsc_history h)

(* The reference decides linearizability from the definition, with no
   memo and no pruning: some subset of the pending operations, together
   with every completed one, has an order that respects real time and
   replays through the specification with the observed responses (a
   pending operation accepts any response). *)
module Lin_oracle (S : Aba_spec.Seq_spec.S) = struct
  type op = {
    pid : int;
    op : S.op;
    mutable res : S.res option;
    inv : int;
    mutable rsp : int;
  }

  let ops_of h =
    let open_op = Hashtbl.create 4 in
    let ops = ref [] in
    List.iteri
      (fun time e ->
        match e with
        | Aba_primitives.Event.Invoke (p, op) ->
            let o = { pid = p; op; res = None; inv = time; rsp = max_int } in
            Hashtbl.replace open_op p o;
            ops := o :: !ops
        | Aba_primitives.Event.Response (p, r) ->
            let o = Hashtbl.find open_op p in
            Hashtbl.remove open_op p;
            o.res <- Some r;
            o.rsp <- time)
      h;
    List.rev !ops

  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun l -> x :: l) s

  let rec insertions x = function
    | [] -> [ [ x ] ]
    | y :: rest as l ->
        (x :: l) :: List.map (fun r -> y :: r) (insertions x rest)

  let rec permutations = function
    | [] -> [ [] ]
    | x :: rest -> List.concat_map (insertions x) (permutations rest)

  let rec respects_real_time = function
    | [] -> true
    | a :: rest ->
        List.for_all (fun b -> not (b.rsp < a.inv)) rest
        && respects_real_time rest

  let replays ~n order =
    let rec go st = function
      | [] -> true
      | o :: rest -> (
          let st', r = S.apply st o.pid o.op in
          match o.res with
          | Some r' when not (S.equal_res r r') -> false
          | _ -> go st' rest)
    in
    go (S.init ~n) order

  let linearizable ~n h =
    let ops = ops_of h in
    let completed = List.filter (fun o -> o.res <> None) ops in
    let pending = List.filter (fun o -> o.res = None) ops in
    List.exists
      (fun chosen ->
        List.exists
          (fun order -> respects_real_time order && replays ~n order)
          (permutations (completed @ chosen)))
      (subsets pending)
end
