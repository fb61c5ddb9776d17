(** Bench parts and their invariants: every registered part at smoke size
    and the smoke model-check suite pass the checks the bench and
    [aba_lab explore] enforce, and each invariant family rejects a
    hand-built bad row set. *)

module Part = Aba_experiments.Part
module Row = Aba_experiments.Row
module S = Aba_experiments.Scenarios

let check_none what vs = Alcotest.(check (list string)) what [] vs

let check_some what vs =
  Alcotest.(check bool) (what ^ " is rejected") true (vs <> [])

let part name =
  match Part.find name with
  | Some p -> p
  | None -> Alcotest.failf "part %s not registered" name

let smoke_part p () =
  let rows = p.Part.run (Part.config ~smoke:true ()) in
  check_none (p.Part.name ^ " invariants") (Part.violations p rows)

let document_layout () =
  match Part.document [] with
  | Aba_experiments.Json.Obj (("meta", Aba_experiments.Json.Obj meta) :: rest)
    ->
      Alcotest.(check bool)
        "schema_version" true
        (List.assoc_opt "schema_version" meta
        = Some (Aba_experiments.Json.Int 8));
      Alcotest.(check (list string))
        "sections"
        [
          "multicore_treiber"; "reclamation"; "scalability_sweep";
          "latency_percentiles"; "capacity_sweep"; "service_sweep";
          "protection_sweep"; "recovery_sweep";
        ]
        (List.map fst rest)
  | _ -> Alcotest.fail "document must start with meta"

let smoke_suite () =
  let reports = S.run_suite ~smoke:true () in
  check_none "suite invariants" (S.suite_violations reports);
  (* A mutant that slips through must fail the suite. *)
  check_some "an uncaught mutant"
    (S.suite_violations
       (List.map
          (fun (r : S.report) ->
            if r.S.name = "aba-unsafe-tag2" then
              {
                r with
                S.verdict = "ok";
                passed = false;
                violation_schedule = None;
              }
            else r)
          reports))

(* ----- Hand-built rows ----- *)

let obs_row ?(p = (100, 200, 300, 400)) ?(count = 10) head kind tail =
  let p50, p90, p99, p999 = p in
  Row.(
    head
    @ [
        ("kind", Str kind);
        ("count", Int count);
        ("retries", Int 0);
        ("p50_ns", Int p50);
        ("p90_ns", Int p90);
        ("p99_ns", Int p99);
        ("p999_ns", Int p999);
      ]
    @ tail)

let rejects name ~good ~bad =
  let p = part name in
  check_none (name ^ ": good rows") (Part.violations p good);
  check_some (name ^ ": bad rows") (Part.violations p bad)

let non_monotone () =
  let row p =
    obs_row ~p
      Row.[ ("bench", Str "fig3"); ("domains", Int 2); ("ops", Int 500) ]
      "ll" []
  in
  rejects "percentiles" ~good:[ row (1, 2, 3, 4) ] ~bad:[ row (1, 3, 2, 4) ]

let recovery_rows ?(audit_ok = fun _ _ -> true) () =
  List.concat_map
    (fun protection ->
      List.concat_map
        (fun period ->
          let crashes = if period = 0 then 0 else 5 in
          List.map
            (fun kind ->
              obs_row
                Row.
                  [
                    ("structure", Str "dstack");
                    ("protection", Str protection);
                    ("domains", Int 2);
                    ("ops", Int 500);
                    ("crash_period", Int period);
                  ]
                kind
                Row.
                  [
                    ("ops_per_sec", Float 1e6);
                    ("crashes", Int crashes);
                    ("recoveries", Int crashes);
                    ("audit_ok", Bool (audit_ok protection period));
                  ])
            (if period = 0 then [ "push"; "pop" ]
             else [ "push"; "pop"; "crash"; "recover" ]))
        [ 0; 7 ])
    [ "tag8"; "llsc"; "announced8" ]

let audit_failed () =
  rejects "recovery" ~good:(recovery_rows ())
    ~bad:
      (recovery_rows
         ~audit_ok:(fun p period -> p <> "llsc" || period = 0)
         ())

let service_row ~scope ~shards ~steal ~skew ~steals =
  Row.
    [
      ("structure", Str "stack");
      ("scope", Str scope);
      ("shards", Int shards);
      ("domains", Int 2);
      ("steal", Bool steal);
      ("combining", Bool false);
      ("skew", Str skew);
      ("ops", Int 500);
      ("count", Int 1000);
      ("ops_per_sec", Float 1e6);
      ("p50_ns", Int 100);
      ("p90_ns", Int 200);
      ("p99_ns", Int 300);
      ("p999_ns", Int 400);
      ("slo_ns", Int 10_000);
      ("slo", Float 0.99);
      ("steals", Int steals);
      ("stolen", Int steals);
      ("spills", Int 0);
      ("batched", Int 0);
    ]

let steals_with_steal_off () =
  let good =
    [
      service_row ~scope:"e2e" ~shards:1 ~steal:false ~skew:"uniform"
        ~steals:0;
      service_row ~scope:"shards" ~shards:4 ~steal:true ~skew:"hot" ~steals:3;
    ]
  in
  rejects "service" ~good
    ~bad:
      (service_row ~scope:"e2e" ~shards:4 ~steal:false ~skew:"hot" ~steals:3
      :: good)

let protection_rows ?(skip = "") () =
  List.concat_map
    (fun structure ->
      List.concat_map
        (fun protection ->
          let head =
            Row.
              [
                ("structure", Str structure);
                ("protection", Str protection);
                ("domains", Int 2);
                ("ops", Int 500);
              ]
          and tail = Row.[ ("ops_per_sec", Float 1e6) ] in
          if structure = "msqueue" && protection = skip then []
          else
            obs_row head "push" tail
            :: (if protection = "announced8" then [ obs_row head "scan" tail ]
                else []))
        [ "tag16"; "announced8"; "hazard"; "epoch"; "guarded" ])
    [ "treiber"; "msqueue" ]

let scan_under_tag16 () =
  let good = protection_rows () in
  rejects "protections" ~good
    ~bad:
      (List.map
         (fun r ->
           if Row.str r "protection" = "tag16" then
             List.map
               (fun (k, v) ->
                 if k = "kind" then (k, Row.Str "scan") else (k, v))
               r
           else r)
         good)

let missing_protection () =
  rejects "protections" ~good:(protection_rows ())
    ~bad:(protection_rows ~skip:"hazard" ())

let suite =
  List.map
    (fun p ->
      Alcotest.test_case
        (Printf.sprintf "part %s at smoke size" p.Part.name)
        `Quick (smoke_part p))
    Part.all
  @ [
      Alcotest.test_case "document layout" `Quick document_layout;
      Alcotest.test_case "smoke model-check suite" `Quick smoke_suite;
      Alcotest.test_case "rejects non-monotone percentiles" `Quick
        non_monotone;
      Alcotest.test_case "rejects a failed audit" `Quick audit_failed;
      Alcotest.test_case "rejects steals with stealing off" `Quick
        steals_with_steal_off;
      Alcotest.test_case "rejects a scan row under tag16" `Quick
        scan_under_tag16;
      Alcotest.test_case "rejects a missing protection" `Quick
        missing_protection;
    ]
