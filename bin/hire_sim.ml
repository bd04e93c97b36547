(* Command-line runner for a single experiment cell of the paper's sweep
   (one ⟨scheduler, μ, switch setup⟩ on a fat-tree cluster), mirroring
   the artifact's runner tool.  Prints the metric summary the figures are
   built from; see bench/main.ml for the full sweep. *)

let run scheduler mu setup base resilience seeds jobs verbose csv trace obs_summary journal
    checkpoint_every =
  Failpt.init_env ();
  (* Failpoint streams are process-global and never reset between runs:
     sequential seeds continue one stream, while forked seeds would each
     restart it from the parent's state and so print different reports. *)
  if jobs > 1 && Failpt.enabled () then
    failwith
      "--jobs cannot run with HIRE_FAILPOINTS set (sequential seeds share one failpoint \
       stream; forked seeds would each restart it)";
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
  let reports =
    let instrumented = trace <> None || obs_summary in
    match journal with
    | Some state_dir ->
        (* Journaled runs are single-seed — one journal directory holds
           one run — and deterministic-wall, so a crash/recovery replay
           re-derives every WAL record byte for byte (docs/JOURNAL.md).
           Layout follows the --state-dir convention: the WAL lives in
           <state-dir>/journal; recovery is bin/hire_service --recover. *)
        List.map
          (fun seed ->
            let spec = { spec with seed } in
            let config =
              { Sim.Simulator.default_config with deterministic_wall = true }
            in
            let service =
              Sim.Service.start
                ~dir:(Filename.concat state_dir "journal")
                ~checkpoint_every
                ~header:(Harness.Experiment.spec_to_blob spec)
                (Harness.Experiment.prepare ~config spec)
            in
            (Sim.Service.run service).Sim.Simulator.report)
          (match seeds with
          | [ _ ] -> seeds
          | _ -> failwith "--journal runs exactly one seed (pass --seeds N)")
    | None ->
    if jobs <= 1 || List.length seeds <= 1 then Harness.Experiment.run_seeds spec seeds
    else if instrumented then begin
      (* The obs registry and trace ring a forked child fills are lost
         when it exits, so instrumented seeds run in this process. *)
      Printf.eprintf
        "hire_sim: --jobs ignored with --trace/--obs-summary (a forked worker's \
         instrumentation would be lost)\n\
         %!";
      Harness.Experiment.run_seeds spec seeds
    end
    else
      Runner.Pool.map ~jobs ~retries:0
        ~label:(fun seed -> Printf.sprintf "seed %d" seed)
        ~f:(fun seed -> Harness.Experiment.run { spec with seed })
        seeds
      |> List.map (fun (c : _ Runner.Pool.cell) ->
             match c.result with
             | Ok r -> r
             | Error reason -> failwith (Runner.Pool.reason_to_string reason))
  in
  List.iteri
    (fun i r ->
      Printf.printf "seed %d: %s\n" (List.nth seeds i)
        (Format.asprintf "%a" Sim.Metrics.pp_report r);
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
    reports;
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

let jobs =
  let doc =
    "Run up to $(docv) seeds concurrently on forked worker processes \
     (docs/RUNNER.md).  Reports are still printed in seed order.  Ignored with \
     $(b,--trace) or $(b,--obs-summary), whose instrumentation a forked worker \
     would lose; rejected when HIRE_FAILPOINTS is set, since sequential seeds share \
     one failpoint stream that forked seeds would each restart."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

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

let journal =
  let doc =
    "Journal the run under state directory $(docv) (WAL in $(docv)/journal, \
     docs/JOURNAL.md): every scheduling decision is write-ahead logged and every \
     round commit fsynced, so a crashed run resumes with $(b,hire_service \
     --recover --state-dir) $(docv).  Single-seed only; implies deterministic \
     solver wall times in the report."
  in
  Arg.(value & opt (some string) None & info [ "journal"; "state-dir" ] ~docv:"DIR" ~doc)

let checkpoint_every =
  let doc =
    "With $(b,--journal): write a full state checkpoint every $(docv) rounds (0 \
     disables checkpoints; recovery then replays from genesis)."
  in
  Arg.(value & opt int 250 & info [ "checkpoint-every" ] ~docv:"ROUNDS" ~doc)

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
      $ Cell_flags.resilience $ seeds $ jobs $ verbose $ csv $ trace $ obs_summary $ journal
      $ checkpoint_every)

(* [~catch:false] so bad flag values (unknown scheduler/setup) and
   unreadable/unwritable files exit 1 with a one-line error instead of
   cmdliner's "internal error" backtrace. *)
let () =
  try exit (Cmd.eval ~catch:false cmd)
  with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      Printf.eprintf "hire_sim: %s\n" msg;
      exit 1
  | Journal.Sink.Crashed seq ->
      Printf.eprintf "hire_sim: injected crash at WAL seq %d\n" seq;
      exit 9
