(** aba-lab — experiment driver.

    Each subcommand regenerates one of the paper-derived experiment tables
    listed in DESIGN.md, or runs one bench part ({!Aba_experiments.Part});
    [all] runs the full battery that EXPERIMENTS.md records. *)

open Aba_experiments.Experiments
open Cmdliner
module Part = Aba_experiments.Part

let ns_arg =
  let doc = "Process counts to sweep (comma separated)." in
  Arg.(value & opt (list int) [ 3; 4; 6; 8 ] & info [ "n" ] ~doc)

let cmd_of name doc run =
  Cmd.v (Cmd.info name ~doc) Term.(const run $ const ())

let space_cmd =
  Cmd.v (Cmd.info "space" ~doc:"Space usage table (E3/E5).")
    Term.(const run_space $ ns_arg)

let covering_cmd =
  let ns = Arg.(value & opt (list int) [ 3; 4 ] & info [ "n" ] ~doc:"sizes") in
  Cmd.v (Cmd.info "covering" ~doc:"Lemma 1 covering adversary (E1).")
    Term.(const run_covering $ ns)

let wraparound_cmd = cmd_of "wraparound" "Tag wraparound search (E6)."
    run_wraparound

let tradeoff_cmd =
  Cmd.v (Cmd.info "tradeoff" ~doc:"Time-space tradeoff table (E2/E5).")
    Term.(const run_tradeoff $ ns_arg)

let steps_cmd =
  let ns =
    Arg.(value & opt (list int) [ 3; 4; 6; 8; 12; 16 ] & info [ "n" ]
           ~doc:"sizes")
  in
  Cmd.v (Cmd.info "steps" ~doc:"Step complexity growth series (E2).")
    Term.(const run_steps $ ns)

let stack_cmd =
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~doc:"concurrent domains")
  in
  let ops =
    Arg.(value & opt int 20_000 & info [ "ops" ] ~doc:"operations per domain")
  in
  Cmd.v (Cmd.info "stack" ~doc:"Treiber stack reuse corruption (E7).")
    Term.(const (fun domains ops -> run_stack ~domains ~ops ()) $ domains $ ops)

(* Every bench part is a subcommand running the same code as
   [bench --part NAME]; a broken invariant exits 1. *)
let run_part ~smoke p =
  let rows = Part.run p (Part.config ~smoke ()) in
  match Part.violations p rows with
  | [] -> ()
  | vs ->
      List.iter (Printf.eprintf "invariant violated: %s\n") vs;
      exit 1

let part_cmds =
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"CI size (2 domains, 500 ops).")
  in
  List.map
    (fun p ->
      Cmd.v
        (Cmd.info p.Part.name ~doc:(p.Part.doc ^ "."))
        Term.(const (fun smoke -> run_part ~smoke p) $ smoke))
    Part.all

(* E16: the DPOR model-checking suite.  Each scenario certifies one
   concurrent structure at a small configuration over a representative
   schedule set; the naive E9 exhaustive summary stays reachable through
   [all] as the oracle the engine is differentially tested against. *)
let explore_cmd =
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~doc:"Run a single scenario by name.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the reports as JSON.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"Skip the heavy scenarios (CI smoke mode).")
  in
  let max_schedules =
    Arg.(
      value & opt int 500_000
      & info [ "max-schedules" ] ~doc:"Schedule budget per scenario.")
  in
  let preemption_bound =
    Arg.(
      value
      & opt (some int) None
      & info [ "preemption-bound" ]
          ~doc:"Bound involuntary context switches per schedule.")
  in
  let run scenario json smoke max_schedules preemption_bound =
    let module S = Aba_experiments.Scenarios in
    let reports =
      match scenario with
      | Some id -> (
          match S.find id with
          | None ->
              Printf.eprintf "unknown scenario %S; known: %s\n" id
                (String.concat ", " (S.names ()));
              exit 2
          | Some s -> [ s.S.run ~max_schedules ?preemption_bound () ])
      | None -> S.run_suite ~smoke ~max_schedules ?preemption_bound ()
    in
    if json then
      print_string (Aba_experiments.Json.to_string (S.suite_to_json reports))
    else begin
      Printf.printf "%-18s %-10s %9s %12s %9s %7s %6s %8s %5s\n" "scenario"
        "verdict" "explored" "bound" "reduction" "sleeps" "races" "replayed"
        "pass";
      List.iter
        (fun (r : S.report) ->
          let bound, reduction =
            match r.S.stats.Aba_sim.Explore.schedule_bound with
            | Some b ->
                ( string_of_int b,
                  if r.S.stats.Aba_sim.Explore.explored > 0 then
                    Printf.sprintf "%.1fx"
                      (float_of_int b
                      /. float_of_int r.S.stats.Aba_sim.Explore.explored)
                  else "-" )
            | None -> ("overflow", "-")
          in
          Printf.printf "%-18s %-10s %9d %12s %9s %7d %6d %8d %5s\n" r.S.name
            r.S.verdict
            r.S.stats.Aba_sim.Explore.explored
            bound reduction r.S.stats.Aba_sim.Explore.sleep_set_prunes
            r.S.stats.Aba_sim.Explore.races_detected
            r.S.stats.Aba_sim.Explore.actions_replayed
            (if r.S.passed then "ok" else "FAIL"))
        reports
    end;
    let violations =
      match scenario with
      | Some _ -> List.concat_map S.report_violations reports
      | None -> S.suite_violations reports
    in
    if violations <> [] then begin
      List.iter (Printf.eprintf "invariant violated: %s\n") violations;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "DPOR model-check scenario suite (E16): certify every concurrent \
          structure at a small configuration.")
    Term.(
      const run $ scenario $ json $ smoke $ max_schedules $ preemption_bound)

let ablate_cmd =
  cmd_of "ablate" "Ablations: fig3 retry bound, fig4 sequence domain."
    run_ablation

(* E14: the observability layer exercised end to end — a contended churn
   run over an instrumented stack, then the merged per-kind summary and
   timeline the Obs handle collected.  The stack's own handle is used
   (churn gets none) so each operation is counted once, with retries. *)
let obs_cmd =
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~doc:"concurrent domains")
  in
  let ops =
    Arg.(value & opt int 10_000 & info [ "ops" ] ~doc:"operations per domain")
  in
  let events =
    Arg.(value & opt int 20 & info [ "events" ] ~doc:"trace events to print")
  in
  let protection =
    Arg.(
      value & opt string "hazard"
      & info [ "protection" ]
          ~doc:
            "head protection of the churned stack: $(b,hazard) (reclaimed; \
             retire events) or $(b,announced) (wraparound-safe 8-bit tags; \
             crossing scans show up as $(b,scan) rows).")
  in
  let run domains ops events protection =
    let module Obs = Aba_obs.Obs in
    let prot =
      match protection with
      | "announced" -> Aba_runtime.Rt_treiber.Announced 8
      | "hazard" ->
          Aba_runtime.Rt_treiber.Reclaimed Aba_runtime.Rt_reclaim.Hazard
      | other ->
          Printf.eprintf "unknown protection %S (hazard|announced)\n" other;
          exit 2
    in
    let obs = Obs.create ~trace:512 ~n:domains () in
    let s =
      Aba_runtime.Rt_treiber.create ~obs ~protection:prot
        ~elimination:Aba_runtime.Elimination.default_spec ~capacity:1024
        ~n:domains ()
    in
    let report =
      Aba_runtime.Harness.churn ~mix:Aba_runtime.Harness.Paired ~n:domains
        ~ops
        ~push:(fun ~pid v -> Aba_runtime.Rt_treiber.push s ~pid v)
        ~pop:(fun ~pid -> Aba_runtime.Rt_treiber.pop s ~pid)
        ~finish:(fun ~pid ->
          match Aba_runtime.Rt_treiber.reclaimer s with
          | Some rc ->
              Aba_runtime.Rt_reclaim.release rc ~pid;
              Aba_runtime.Rt_reclaim.flush rc ~pid
          | None -> ())
        ()
    in
    Printf.printf
      "churn (treiber %s+elim, paired): attempted=%d pushed=%d popped=%d \
       remaining=%d multiset=%s\n"
      protection report.Aba_runtime.Harness.attempted
      report.Aba_runtime.Harness.pushed report.Aba_runtime.Harness.popped
      report.Aba_runtime.Harness.remaining
      (match report.Aba_runtime.Harness.outcome with
      | Ok () -> "ok"
      | Error e -> "CORRUPT: " ^ e);
    print_newline ();
    Aba_experiments.Row.(print_table (of_obs obs []));
    Printf.printf
      "\ntrace: %d events recorded, %d retained; first %d of the merged \
       timeline:\n"
      (Obs.trace_recorded obs) (Obs.trace_retained obs) events;
    List.iteri
      (fun i (e : Obs.event) ->
        if i < events then
          Printf.printf "  %10d ns  pid=%d  %-8s %-10s retries=%d\n"
            e.Obs.at_ns e.Obs.pid (Obs.kind_name e.Obs.kind)
            (Obs.outcome_name e.Obs.outcome) e.Obs.retries)
      (Obs.timeline obs)
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Observability demo (E14): instrumented contended churn, merged \
          histogram + trace.")
    Term.(const run $ domains $ ops $ events $ protection)

let all_cmd =
  let run () =
    run_space [ 3; 4; 6; 8 ];
    run_covering [ 3; 4 ];
    run_wraparound ();
    run_tradeoff [ 4; 8 ];
    run_steps [ 3; 4; 6; 8; 12; 16 ];
    run_explore ();
    run_ablation ();
    run_stack ~domains:4 ~ops:20_000 ();
    Option.iter (run_part ~smoke:false) (Part.find "reclaim")
  in
  cmd_of "all" "Run the full experiment battery." run

let main =
  Cmd.group
    (Cmd.info "aba-lab" ~version:"1.0"
       ~doc:"Experiments for the PODC 2015 ABA prevention/detection paper.")
    ([
       space_cmd; covering_cmd; wraparound_cmd; tradeoff_cmd; steps_cmd;
       explore_cmd; ablate_cmd; stack_cmd; obs_cmd; all_cmd;
     ]
    @ part_cmds)

let () = exit (Cmd.eval main)
