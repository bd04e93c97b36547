(* Command-line runner for a single experiment cell of the paper's sweep
   (one ⟨scheduler, μ, switch setup⟩ on a fat-tree cluster), mirroring
   the artifact's runner tool.  Prints the metric summary the figures are
   built from; see bench/main.ml for the full sweep. *)

let run scheduler mu k horizon seeds setup util fraction faults_on mtbf mttr max_retries
    solver_budget solver_steps guard jobs verbose csv
    trace obs_summary journal checkpoint_every =
  Failpt.init_env ();
  (* Failpoint streams are process-global: seeds run on several domains
     would draw from them concurrently. *)
  if jobs > 1 && Failpt.enabled () then
    failwith "--jobs cannot run with HIRE_FAILPOINTS set (failpoint state is process-global)";
  Failpt.announce ();
  if trace <> None || obs_summary then Obs.set_enabled true;
  (match trace with
  | Some path -> (
      try Obs.Trace.open_jsonl path
      with Sys_error msg ->
        Printf.eprintf "hire_sim: cannot open trace file: %s\n" msg;
        exit 1)
  | None -> ());
  let setup =
    match setup with
    | "homogeneous" | "homog" -> Sim.Cluster.Homogeneous
    | "heterogeneous" | "het" -> Sim.Cluster.Heterogeneous
    | other -> failwith (Printf.sprintf "unknown setup %S (homogeneous|heterogeneous)" other)
  in
  if not (List.mem scheduler Schedulers.Registry.names) then
    failwith
      (Printf.sprintf "unknown scheduler %S (known: %s)" scheduler
         (String.concat ", " Schedulers.Registry.names));
  let faults =
    if not faults_on then None
    else
      Some
        {
          Faults.plan =
            {
              Faults.Plan.default_config with
              server_mtbf = mtbf;
              switch_mtbf = mtbf;
              server_mttr = mttr;
              switch_mttr = mttr;
            };
          policy = Faults.Policy.create ~max_retries ();
        }
  in
  let resilience =
    if solver_budget = None && solver_steps = None && guard = 0 then None
    else
      let budget =
        if solver_budget = None && solver_steps = None then None
        else Some (Flow.Budget.make ?max_wall_s:solver_budget ?max_steps:solver_steps ())
      in
      Some (Hire.Hire_scheduler.resilience ?budget ~guard_every:guard ())
  in
  let spec =
    {
      Harness.Experiment.default with
      scheduler;
      mu;
      setup;
      k;
      horizon;
      seed = 1;
      target_utilization = util;
      inc_capable_fraction = fraction;
      faults;
      resilience;
    }
  in
  Printf.printf "scheduler=%s mu=%.2f k=%d horizon=%.0fs setup=%s util=%.2f seeds=[%s]\n%!"
    scheduler mu k horizon
    (Sim.Cluster.inc_setup_to_string setup)
    util
    (String.concat ";" (List.map string_of_int seeds));
  if faults_on then
    Printf.printf "faults: mtbf=%.0fs mttr=%.0fs max-retries=%d\n%!" mtbf mttr max_retries;
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
      (* Instrumentation (obs registry, trace ring) is process-global;
         seed-level domain parallelism would interleave it. *)
      Printf.eprintf
        "hire_sim: --jobs ignored with --trace/--obs-summary (instrumentation is \
         process-global)\n\
         %!";
      Harness.Experiment.run_seeds spec seeds
    end
    else
      Runner.Pool.map ~jobs ~retries:0 ~mode:Runner.Pool.Domains
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

let scheduler =
  let doc =
    "Scheduler to run: " ^ String.concat ", " Schedulers.Registry.names ^ "."
  in
  Arg.(value & opt string "hire" & info [ "scheduler"; "s" ] ~docv:"NAME" ~doc)

let mu =
  let doc = "Target ratio of jobs requesting INC resources (the paper's sweep axis)." in
  Arg.(value & opt float 1.0 & info [ "mu" ] ~docv:"RATIO" ~doc)

let k =
  let doc = "Fat-tree arity (k=26 is the paper's 4394-server testbed)." in
  Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc)

let horizon =
  let doc = "Trace length in simulated seconds." in
  Arg.(value & opt float 400.0 & info [ "horizon" ] ~docv:"SECONDS" ~doc)

let seeds =
  let doc = "Seeds to run (the paper uses three per cell)." in
  Arg.(value & opt (list int) [ 1; 2; 3 ] & info [ "seeds" ] ~docv:"INTS" ~doc)

let setup =
  let doc = "Switch capability setup: homogeneous or heterogeneous (2 services/switch)." in
  Arg.(value & opt string "homogeneous" & info [ "setup" ] ~docv:"SETUP" ~doc)

let util =
  let doc = "Offered CPU load of the generated trace." in
  Arg.(value & opt float 0.8 & info [ "util" ] ~docv:"FRACTION" ~doc)

let fraction =
  let doc =
    "Fraction of switches that are INC-capable (default: k/26, keeping the paper's \
     servers-per-INC-switch ratio)."
  in
  Arg.(value & opt (some float) None & info [ "inc-capable" ] ~docv:"FRACTION" ~doc)

let faults_flag =
  let doc =
    "Enable deterministic fault injection: servers and switches fail and recover \
     following seeded exponential MTBF/MTTR draws; killed task groups are requeued \
     with exponential backoff.  Fault model and metrics: docs/FAULTS.md."
  in
  Arg.(value & flag & info [ "faults" ] ~doc)

let mtbf =
  let doc = "Mean time between failures per node, simulated seconds (with $(b,--faults))." in
  Arg.(value & opt float 200.0 & info [ "mtbf" ] ~docv:"SECONDS" ~doc)

let mttr =
  let doc = "Mean time to repair per node, simulated seconds (with $(b,--faults))." in
  Arg.(value & opt float 30.0 & info [ "mttr" ] ~docv:"SECONDS" ~doc)

let max_retries =
  let doc =
    "Requeue attempts per task group hit by a failure before it is cancelled (with \
     $(b,--faults))."
  in
  Arg.(value & opt int 3 & info [ "max-retries" ] ~docv:"N" ~doc)

let solver_budget =
  let doc =
    "Cap each MCMF solve at $(docv) of monotonic wall clock.  An exhausted solve \
     degrades gracefully: partial SSP flow is salvaged, and the round falls back \
     along the solver chain down to a greedy placer (docs/RESILIENCE.md).  Only \
     meaningful for flow-based schedulers."
  in
  Arg.(value & opt (some float) None & info [ "solver-budget" ] ~docv:"SECONDS" ~doc)

let solver_steps =
  let doc =
    "Cap each MCMF solve at $(docv) solver steps (SSP augmentations; cost-scaling \
     pushes+relabels), composable with $(b,--solver-budget)."
  in
  Arg.(value & opt (some int) None & info [ "solver-steps" ] ~docv:"N" ~doc)

let guard =
  let doc =
    "Run the runtime invariant guard on every $(docv)-th solve: re-verify the live \
     flow from first principles and cross-check extracted placements against the \
     capacity ledgers; a violation quarantines the solution and re-runs the round on \
     the next solver backend.  0 disables the guard."
  in
  Arg.(value & opt int 0 & info [ "guard" ] ~docv:"N" ~doc)

let jobs =
  let doc =
    "Run up to $(docv) seeds concurrently on OCaml 5 domains (docs/RUNNER.md).  \
     Reports are still printed in seed order.  Ignored with $(b,--trace) or \
     $(b,--obs-summary), whose instrumentation is process-global; rejected when \
     HIRE_FAILPOINTS is set."
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
      const run $ scheduler $ mu $ k $ horizon $ seeds $ setup $ util $ fraction
      $ faults_flag $ mtbf $ mttr $ max_retries $ solver_budget $ solver_steps $ guard
      $ jobs $ verbose $ csv $ trace
      $ obs_summary $ journal $ checkpoint_every)

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
