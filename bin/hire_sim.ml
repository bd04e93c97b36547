(* Command-line runner for a single experiment cell of the paper's sweep
   (one ⟨scheduler, μ, switch setup⟩ on a fat-tree cluster), mirroring
   the artifact's runner tool.  Prints the metric summary the figures are
   built from; see bench/main.ml for the full sweep. *)

let run scheduler mu setup base resilience seeds verbose csv trace obs_summary =
  Failpt.announce ();
  if trace <> None || obs_summary then Obs.set_enabled true;
  (match trace with
  | Some path -> (
      try Obs.Trace.open_jsonl path
      with Sys_error msg ->
        Printf.eprintf "hire_sim: cannot open trace file: %s\n" msg;
        exit 1)
  | None -> ());
  let spec = { (Cell_flags.cell base ~scheduler ~mu ~setup) with resilience } in
  let setup = spec.Harness.Experiment.setup in
  Printf.printf "scheduler=%s mu=%.2f k=%d horizon=%.0fs setup=%s util=%.2f seeds=[%s]\n%!"
    scheduler mu spec.k spec.horizon
    (Sim.Cluster.inc_setup_to_string setup)
    spec.target_utilization
    (String.concat ";" (List.map string_of_int seeds));
  let faults_on = spec.faults <> None in
  (match spec.faults with
  | None -> ()
  | Some f ->
      Printf.printf "faults: mtbf=%.0fs mttr=%.0fs max-retries=%d\n%!" f.plan.server_mtbf
        f.plan.server_mttr f.policy.max_retries);
  (match resilience with
  | None -> ()
  | Some r ->
      Printf.printf "resilience: budget=%s guard-every=%d\n%!"
        (match r.Hire.Hire_scheduler.budget with
        | None -> "none"
        | Some b -> Format.asprintf "%a" Flow.Budget.pp b)
        r.Hire.Hire_scheduler.guard_every);
  let reports = Harness.Experiment.run_seeds spec seeds in
  List.iter2
    (fun seed r ->
      Printf.printf "seed %d: %s\n" seed (Format.asprintf "%a" Sim.Metrics.pp_report r);
      if verbose then begin
        let lats = r.Sim.Metrics.placement_latency in
        if Obs.Histogram.count lats > 0 then begin
          Printf.printf "  placement latency: ";
          List.iter
            (fun q -> Printf.printf "p%.0f=%.3fs " (100.0 *. q) (Obs.Histogram.quantile lats q))
            [ 0.5; 0.9; 0.99 ];
          print_newline ()
        end;
        let solver = r.Sim.Metrics.solver_wall in
        if Obs.Histogram.count solver > 0 then
          Printf.printf "  solver: %d solves, median %.3f ms\n" (Obs.Histogram.count solver)
            (1000.0 *. Obs.Histogram.quantile solver 0.5)
      end)
    seeds reports;
  (if resilience <> None then
     let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
     Printf.printf
       "resilience totals: degraded-rounds=%d fallback-rounds=%d max-depth=%d \
        guard-trips=%d salvaged=%d\n"
       (sum (fun r -> r.Sim.Metrics.degraded_rounds))
       (sum (fun r -> r.Sim.Metrics.fallback_rounds))
       (List.fold_left (fun acc r -> max acc r.Sim.Metrics.fallback_depth_max) 0 reports)
       (sum (fun r -> r.Sim.Metrics.guard_trips))
       (sum (fun r -> r.Sim.Metrics.salvaged_tasks)));
  let resilience_on = resilience <> None in
  (match csv with
  | None -> ()
  | Some path ->
      let rows =
        List.map2
          (fun seed r ->
            Sim.Csv_export.row ~faults:faults_on ~resilience:resilience_on ~scheduler ~mu
              ~setup ~seed r)
          seeds reports
      in
      Sim.Csv_export.write_file ~faults:faults_on ~resilience:resilience_on path rows;
      Printf.printf "per-seed rows written to %s\n" path);
  let mean f = Harness.Experiment.mean_over f reports in
  Printf.printf
    "mean over %d seed(s): satisfied-INC=%.3f unserved-INC-TGs=%.3f detour=%.3f\n"
    (List.length reports)
    (mean Sim.Metrics.inc_satisfaction_ratio)
    (mean Sim.Metrics.inc_tg_unserved_ratio)
    (mean (fun r -> r.Sim.Metrics.detour_mean));
  if obs_summary then begin
    Printf.printf "--- observability summary ---\n%!";
    Format.printf "%a%!" Obs.Registry.pp_summary ()
  end;
  (match trace with
  | Some path ->
      Obs.Trace.close_jsonl ();
      Printf.printf "trace written to %s (%d records retained in ring)\n" path
        (Obs.Trace.length ())
  | None -> ())

open Cmdliner

let seeds =
  let doc = "Seeds to run (the paper uses three per cell)." in
  Arg.(value & opt (list int) [ 1; 2; 3 ] & info [ "seeds" ] ~docv:"INTS" ~doc)

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print per-seed latency and solver stats.")

let csv =
  let doc = "Also write per-seed metric rows to $(docv) (the artifact's stats-file spirit)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let trace =
  let doc =
    "Enable instrumentation and stream structured trace events (JSONL, one object per \
     line) to $(docv).  Schema and event inventory: docs/OBSERVABILITY.md."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let obs_summary =
  let doc =
    "Enable instrumentation and print every counter, gauge, and histogram of the \
     observability registry after the run."
  in
  Arg.(value & flag & info [ "obs-summary" ] ~doc)

let cmd =
  let doc = "run one HIRE-reproduction scheduling experiment" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays a synthetic Alibaba-like trace against a fat-tree cluster with \
         INC-capable switches and reports the paper's metrics (satisfied INC jobs, \
         unallocated INC task groups, switch detours, switch load, placement latency). \
         See bench/main.exe for the full figure sweep.";
    ]
  in
  Cmd.v
    (Cmd.info "hire_sim" ~version:"1.0" ~doc ~man)
    Term.(
      const run $ Cell_flags.scheduler $ Cell_flags.mu $ Cell_flags.setup $ Cell_flags.base
      $ Cell_flags.resilience $ seeds $ verbose $ csv $ trace $ obs_summary)

(* [~catch:false] so bad flag values (unknown scheduler/setup) and
   unreadable/unwritable files exit 1 with a one-line error instead of
   cmdliner's "internal error" backtrace. *)
let () =
  try exit (Cmd.eval ~catch:false cmd)
  with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      Printf.eprintf "hire_sim: %s\n" msg;
      exit 1
