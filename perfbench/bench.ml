(* The benchmark executable: one workload, one process.

     bench.exe --workload svc-open|churn|dpor --seed N --seconds S
               --trace 0|1 [--spans FILE]

   Prints one JSON object: correctness, attempts, failures, the metrics
   and the run context.  run.py runs it in fresh processes and
   aggregates; running workloads in separate processes keeps [setup_s]
   independent of the order they ran in, because [Rt_mem]'s module-level
   object registry only ever grows. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 3.0 in
  let trace = ref 0 and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "svc-open | churn | dpor");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measuring time of this process");
      ("--trace", Arg.Set_int trace, "1: record spans and per-layer metrics");
      ("--spans", Arg.Set_string spans, "write the spans here (traced runs)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let spans_out = if !spans = "" then None else Some !spans in
  let attempted, failed, correct =
    match !workload with
    | "svc-open" ->
        let r = Svc_open.run ~seed ~seconds ~traced ~spans_out in
        (r.attempted, r.failed, r.correct)
    | "churn" ->
        let r = Churn.run ~seed ~seconds ~traced ~spans_out in
        (r.attempted, r.failed, r.correct)
    | "dpor" ->
        let r = Dpor.run ~seconds ~traced ~spans_out in
        (r.attempted, r.failed, r.correct)
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  Rec.metric "setup_s" "s" !Rec.setup_total;
  Rec.metric "failed_frac" "ratio"
    (float_of_int failed /. float_of_int (max 1 attempted));
  let nproc = Domain.recommended_domain_count () in
  let domains = int_of_string (List.assoc "domains" !Rec.context) in
  Rec.note "nproc" (string_of_int nproc);
  Rec.note "oversubscribed" (string_of_bool (domains > nproc));
  Rec.note "ocaml" Sys.ocaml_version;
  Rec.note "seed" (string_of_int seed);
  Rec.note "clock" (if Aba_obs.Clock.monotonic then "monotonic" else "wall");
  let b = Buffer.create 4096 in
  let str s = Printf.bprintf b "%S" s in
  Printf.bprintf b "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{"
    correct attempted failed;
  List.iteri
    (fun i (name, v, unit) ->
      if i > 0 then Buffer.add_char b ',';
      str name;
      Printf.bprintf b ":{\"value\":%.17g,\"unit\":" v;
      str unit;
      Buffer.add_char b '}')
    (List.rev !Rec.metrics);
  Buffer.add_string b "},\"context\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      str k;
      Buffer.add_char b ':';
      str v)
    (List.rev !Rec.context);
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)
