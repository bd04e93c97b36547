(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the scaled-down default setup (see DESIGN.md §5).

   - [tab3]      the CompStore INC catalogue (configuration table)
   - [fig7]      MCMF solver speed distributions at different INC ratios μ
   - [fig8a-8e]  homogeneous switches: satisfied INC jobs, unallocated INC
                 task groups (HIRE), switch detours, switch usage (μ=1),
                 placement-latency CCDF (μ=1)
   - [fig8f-8j]  the same five metrics with heterogeneous switches

   Absolute numbers differ from the paper (its testbed replayed 36 h of a
   4000-machine trace); the reproduction target is the *shape*: ordering
   of schedulers, approximate factors, and crossovers.

   Environment knobs:
     HIRE_BENCH_FAST=1     smaller sweep (smoke-test the harness)
     HIRE_BENCH_SEEDS=n    number of seeds per cell (default 3, as in the paper)
     HIRE_BENCH_HORIZON=s  trace length in seconds (default 400)
     HIRE_BENCH_JOBS=n     forked worker processes of the sweep (default 1)
     HIRE_BENCH_FAULTS=1   also run the fault-injection cell (scheduling under churn) *)

module Metrics = Sim.Metrics
module Experiment = Harness.Experiment
module Stats = Prelude.Stats

let fast = Sys.getenv_opt "HIRE_BENCH_FAST" <> None

(* A set but malformed knob is an error, not a silent default: a sweep
   that quietly ran 3 seeds instead of the requested count would print
   tables indistinguishable from the intended ones. *)
let env_knob name ~what ~parse ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match parse s with
      | Some v -> v
      | None ->
          Printf.eprintf "bench: %s=%S is not %s\n" name s what;
          exit 1)

let positive_int s = match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None

let positive_float s =
  match float_of_string_opt s with Some x when Float.is_finite x && x > 0.0 -> Some x | _ -> None

let seeds =
  let n =
    env_knob "HIRE_BENCH_SEEDS" ~what:"a positive integer" ~parse:positive_int
      ~default:(if fast then 1 else 3 (* the paper runs three seeds per cell *))
  in
  List.init n (fun i -> i + 1)

let horizon =
  env_knob "HIRE_BENCH_HORIZON" ~what:"a positive number of seconds" ~parse:positive_float
    ~default:(if fast then 120.0 else 400.0)

let mus = if fast then [ 0.25; 1.0 ] else [ 0.05; 0.25; 0.5; 0.75; 1.0 ]

let schedulers =
  [
    "hire";
    "hire-simple";
    "yarn-concurrent";
    "k8-concurrent";
    "sparrow-concurrent";
    "coco-timeout";
  ]

let spec ~scheduler ~mu ~setup ~seed =
  { Experiment.default with scheduler; mu; setup; seed; horizon }

(* ------------------------------------------------------------------ *)
(* Result store: every figure reads from one sweep, executed upfront   *)
(* by the parallel runner (lib/runner; HIRE_BENCH_JOBS worker          *)
(* processes, docs/RUNNER.md).                                         *)
(* ------------------------------------------------------------------ *)

let jobs = env_knob "HIRE_BENCH_JOBS" ~what:"a positive integer" ~parse:positive_int ~default:1

let faults_enabled = Sys.getenv_opt "HIRE_BENCH_FAULTS" <> None

(* Aggressive churn relative to the trace: several fail/recover cycles
   per node per run, so requeue throughput dominates the numbers. *)
let fault_spec =
  {
    Faults.plan =
      {
        Faults.Plan.default_config with
        server_mtbf = 120.0;
        switch_mtbf = 240.0;
        server_mttr = 15.0;
        switch_mttr = 15.0;
      };
    policy = Faults.Policy.default;
  }

let base = { Experiment.default with horizon }

(* The cells the figures need, in the order the tables print them (and
   the order the CSV rows are written in). *)
let main_specs =
  Experiment.sweep base
    ~setups:[ Sim.Cluster.Homogeneous; Sim.Cluster.Heterogeneous ]
    ~schedulers ~mus ~seeds

(* Fig. 7 adds a dedicated mu=0 HIRE run; the ablations add the three
   variants the main sweep does not cover. *)
let fig7_specs =
  Experiment.sweep base ~schedulers:[ "hire" ] ~mus:[ 0.0 ]
    ~setups:[ Sim.Cluster.Homogeneous ] ~seeds

let ablation_specs =
  Experiment.sweep base
    ~schedulers:[ "hire-noloc"; "hire-noshare"; "hire-scaling" ]
    ~mus:[ 1.0 ] ~setups:[ Sim.Cluster.Homogeneous ] ~seeds

let fault_specs =
  if not faults_enabled then []
  else
    Experiment.sweep
      { base with faults = Some fault_spec }
      ~schedulers ~mus:[ 0.5 ]
      ~setups:[ Sim.Cluster.Homogeneous ]
      ~seeds

let dedup specs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun s ->
      let k = Experiment.cell_key s in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    specs

let csv_specs = dedup (main_specs @ fig7_specs @ ablation_specs)
let all_specs = dedup (csv_specs @ fault_specs)

let results : (string, Metrics.report) Hashtbl.t = Hashtbl.create 512

(* Failed/missing cells recompute inline so one bad cell cannot hole a
   table; prime makes this the exception, not the path. *)
let report_for s =
  let key = Experiment.cell_key s in
  match Hashtbl.find_opt results key with
  | Some r -> r
  | None ->
      let r = Experiment.run s in
      Hashtbl.replace results key r;
      r

let prime () =
  let outcomes, stats =
    Runner.run ~jobs ~key:Experiment.cell_key ~label:Experiment.describe
      ~log:(fun line -> Printf.eprintf "  %s\n%!" line)
      ~f:Experiment.run all_specs
  in
  List.iter2
    (fun s (o : _ Runner.outcome) ->
      match o.result with
      | Ok r -> Hashtbl.replace results o.key r
      | Error reason ->
          Printf.eprintf "  [runner] cell %s failed (%s); will recompute inline\n%!"
            (Experiment.describe s)
            (Runner.Pool.reason_to_string reason))
    all_specs outcomes;
  Printf.eprintf "  [runner] sweep: %s\n%!" (Format.asprintf "%a" Runner.pp_stats stats)

type cell = { reports : Metrics.report list }

let cell ~scheduler ~mu ~setup =
  { reports = List.map (fun seed -> report_for (spec ~scheduler ~mu ~setup ~seed)) seeds }

let mean_of ~scheduler ~mu ~setup f =
  Stats.mean (List.map f (cell ~scheduler ~mu ~setup).reports)

(* Pools a per-report histogram across the cell's seeds. *)
let merged_of ~scheduler ~mu ~setup f =
  Obs.Histogram.merged (List.map f (cell ~scheduler ~mu ~setup).reports)

(* ------------------------------------------------------------------ *)
(* Printing helpers                                                   *)
(* ------------------------------------------------------------------ *)

let header title description =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title description

let print_sweep_table ~tag ~metric ~setup f =
  Printf.printf "\n[%s] %s (%s switches)\n" tag metric
    (Sim.Cluster.inc_setup_to_string setup);
  Printf.printf "%-20s" "scheduler \\ mu";
  List.iter (fun mu -> Printf.printf "%10.2f" mu) mus;
  print_newline ();
  List.iter
    (fun scheduler ->
      Printf.printf "%-20s" scheduler;
      List.iter (fun mu -> Printf.printf "%10.3f" (mean_of ~scheduler ~mu ~setup f)) mus;
      print_newline ())
    schedulers

(* ------------------------------------------------------------------ *)
(* Tab. 3: the INC catalogue                                          *)
(* ------------------------------------------------------------------ *)

let tab3 () =
  header "[tab3] INC approaches in the CompStore (paper Tab. 3)"
    "Switch counts for |G|=100, per-switch (sharable) and per-instance demands.";
  let store = Hire.Comp_store.default () in
  Printf.printf "%-12s %-10s %-11s %9s   %-22s %s\n" "name" "feature" "shape" "|switches|"
    "per-switch [rc;st;MB]" "per-instance lo..hi";
  List.iter
    (fun (svc : Hire.Comp_store.inc_service) ->
      let lo, hi = svc.per_instance_range ~group_size:100 in
      Printf.printf "%-12s %-10s %-11s %9d   %-22s %s .. %s\n" svc.name
        (Hire.Comp_store.feature_to_string svc.feature)
        (Hire.Comp_store.shape_to_string svc.shape)
        (svc.switch_count ~group_size:100)
        (Prelude.Vec.to_string svc.per_switch)
        (Prelude.Vec.to_string lo) (Prelude.Vec.to_string hi))
    (Hire.Comp_store.services store)

(* ------------------------------------------------------------------ *)
(* Fig. 7: solver speed                                               *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "[fig7] HIRE MCMF solver speed vs INC ratio (paper Fig. 7)"
    "Wall-clock per MCMF solve, sampled during the homogeneous HIRE runs.\n\
     Paper shape: solve time stays in the same order across mu; higher INC\n\
     demand does not slow the solver down (smaller switch part).";
  let mus7 = 0.0 :: mus in
  Printf.printf "\n%-6s %8s %10s %10s %10s %10s %10s\n" "mu" "solves" "p10(ms)" "p50(ms)"
    "p90(ms)" "p99(ms)" "max(ms)";
  List.iter
    (fun mu ->
      let h =
        merged_of ~scheduler:"hire" ~mu ~setup:Sim.Cluster.Homogeneous (fun r ->
            r.Metrics.solver_wall)
      in
      if Obs.Histogram.count h > 0 then begin
        let p q = 1000.0 *. Obs.Histogram.quantile h q in
        Printf.printf "%-6.2f %8d %10.3f %10.3f %10.3f %10.3f %10.3f\n" mu
          (Obs.Histogram.count h) (p 0.10) (p 0.50) (p 0.90) (p 0.99)
          (1000.0 *. Obs.Histogram.max_value h)
      end)
    mus7;
  (* CDF/CCDF rows for the mu extremes, as in the figure. *)
  List.iter
    (fun mu ->
      let h =
        merged_of ~scheduler:"hire" ~mu ~setup:Sim.Cluster.Homogeneous (fun r ->
            r.Metrics.solver_wall)
      in
      if Obs.Histogram.count h > 0 then begin
        Printf.printf "\nCDF of solver time (ms) at mu=%.2f:\n  " mu;
        List.iter
          (fun (v, f) -> Printf.printf "(%.3f, %.2f) " (1000.0 *. v) f)
          (Obs.Histogram.cdf_points ~points:10 h);
        print_newline ()
      end)
    [ List.hd mus7; List.nth mus7 (List.length mus7 - 1) ]

(* ------------------------------------------------------------------ *)
(* Fig. 8                                                             *)
(* ------------------------------------------------------------------ *)

let fig8_satisfied ~tag ~setup =
  header
    (Printf.sprintf "[%s] Satisfied INC jobs vs mu (paper Fig. 8%s)" tag
       (if setup = Sim.Cluster.Homogeneous then "a" else "f"))
    "Ratio of INC-requesting jobs whose network task groups ran with INC.\n\
     Paper shape: HIRE highest and degrading least as mu -> 1; K8++ the\n\
     best baseline; Sparrow++ lowest; hire-simple below hire.";
  print_sweep_table ~tag ~metric:"satisfied INC jobs" ~setup Metrics.inc_satisfaction_ratio

let fig8_unserved_tgs ~tag ~setup =
  header
    (Printf.sprintf "[%s] Unallocated INC task groups, HIRE (paper Fig. 8%s)" tag
       (if setup = Sim.Cluster.Homogeneous then "b" else "g"))
    "Ratio of requested network task groups HIRE did not serve with INC —\n\
     checks that job-level success is not bought by rejecting task groups.";
  Printf.printf "\n%-20s" "scheduler \\ mu";
  List.iter (fun mu -> Printf.printf "%10.2f" mu) mus;
  print_newline ();
  List.iter
    (fun scheduler ->
      Printf.printf "%-20s" scheduler;
      List.iter
        (fun mu -> Printf.printf "%10.3f" (mean_of ~scheduler ~mu ~setup Metrics.inc_tg_unserved_ratio))
        mus;
      print_newline ())
    [ "hire"; "hire-simple" ]

let fig8_detours ~tag ~setup =
  header
    (Printf.sprintf "[%s] Switch detours vs mu (paper Fig. 8%s)" tag
       (if setup = Sim.Cluster.Homogeneous then "c" else "h"))
    "Mean extra topology levels needed to cover a job's switches beyond its\n\
     servers.  Paper shape: HIRE/flow-based low; Yarn++ by far the worst\n\
     (rack-aware servers + locality-unaware INC).";
  print_sweep_table ~tag ~metric:"switch detours" ~setup (fun r -> r.Metrics.detour_mean);
  Printf.printf
    "\nCompanion metric — fabric span (levels covering servers+switches; schedulers\n\
     that scatter servers across the fabric show zero detour only because their\n\
     jobs already span everything):\n";
  print_sweep_table ~tag ~metric:"fabric span (levels)" ~setup (fun r -> r.Metrics.span_mean)

let fig8_switch_usage ~tag ~setup =
  header
    (Printf.sprintf "[%s] Switch resource usage at mu=1 (paper Fig. 8%s)" tag
       (if setup = Sim.Cluster.Homogeneous then "d" else "i"))
    "Time-weighted used fraction per switch dimension across the run.\n\
     Paper shape: SRAM is the bottleneck dimension; HIRE uses fewer stages\n\
     than the baselines while serving more INC (resource sharing).";
  Printf.printf "\n%-20s %10s %10s %10s\n" "scheduler" "recirc" "stages" "sram";
  List.iter
    (fun scheduler ->
      let dim i =
        mean_of ~scheduler ~mu:1.0 ~setup (fun r -> r.Metrics.switch_load.(i))
      in
      Printf.printf "%-20s %10.4f %10.4f %10.4f\n" scheduler (dim 0) (dim 1) (dim 2))
    schedulers

let fig8_latency ~tag ~setup =
  header
    (Printf.sprintf "[%s] Placement latency CCDF at mu=1 (paper Fig. 8%s)" tag
       (if setup = Sim.Cluster.Homogeneous then "e" else "j"))
    "Complementary CDF of task-group placement latency (s).  Paper shape:\n\
     HIRE has the shortest tail among schedulers serving comparable INC\n\
     volume (50-60% shorter than the best baseline).";
  Printf.printf "\n%-20s %8s %10s %10s %10s %10s %10s\n" "scheduler" "samples" "p50" "p90"
    "p99" "p99.9" "max";
  List.iter
    (fun scheduler ->
      let h = merged_of ~scheduler ~mu:1.0 ~setup (fun r -> r.Metrics.placement_latency) in
      if Obs.Histogram.count h > 0 then begin
        let p q = Obs.Histogram.quantile h q in
        Printf.printf "%-20s %8d %10.3f %10.3f %10.3f %10.3f %10.3f\n" scheduler
          (Obs.Histogram.count h) (p 0.50) (p 0.90) (p 0.99) (p 0.999)
          (Obs.Histogram.max_value h)
      end)
    schedulers;
  Printf.printf "\nCCDF points (latency s, fraction above) at mu=1:\n";
  List.iter
    (fun scheduler ->
      let h = merged_of ~scheduler ~mu:1.0 ~setup (fun r -> r.Metrics.placement_latency) in
      if Obs.Histogram.count h > 0 then begin
        Printf.printf "%-20s " scheduler;
        List.iter
          (fun (v, f) -> Printf.printf "(%.2f, %.3f) " v f)
          (Obs.Histogram.ccdf_points ~points:8 h);
        print_newline ()
      end)
    schedulers

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "[ablation] HIRE design-choice ablations at mu=1 (homogeneous)"
    "DESIGN.md's called-out choices: flexible vs simple flavor logic (the\n\
     paper's ablation, Fig. 8a), locality cost terms, non-linear sharing,\n\
     and the MCMF algorithm (SSP vs cost scaling; results must agree).";
  Printf.printf "\n%-16s %12s %12s %10s %10s %12s\n" "variant" "inc-served" "tg-unserved"
    "detour" "stages" "lat-p99(s)";
  List.iter
    (fun scheduler ->
      let c = cell ~scheduler ~mu:1.0 ~setup:Sim.Cluster.Homogeneous in
      let mean f = Stats.mean (List.map f c.reports) in
      let lats = Obs.Histogram.merged (List.map (fun r -> r.Metrics.placement_latency) c.reports) in
      Printf.printf "%-16s %12.3f %12.3f %10.3f %10.4f %12.2f\n" scheduler
        (mean Metrics.inc_satisfaction_ratio)
        (mean Metrics.inc_tg_unserved_ratio)
        (mean (fun r -> r.Metrics.detour_mean))
        (mean (fun r -> r.Metrics.switch_load.(1)))
        (if Obs.Histogram.count lats = 0 then 0.0 else Obs.Histogram.quantile lats 0.99))
    [ "hire"; "hire-simple"; "hire-noloc"; "hire-noshare"; "hire-scaling" ]

(* ------------------------------------------------------------------ *)
(* Faults: scheduling throughput under churn (HIRE_BENCH_FAULTS=1)    *)
(* ------------------------------------------------------------------ *)

let fault_bench () =
  header "[faults] scheduling under churn (HIRE_BENCH_FAULTS)"
    "Seeded MTBF/MTTR fault plan at mu=0.5, homogeneous switches; killed task\n\
     groups are requeued with exponential backoff (docs/FAULTS.md).";
  Printf.printf "%-20s %8s %8s %8s %8s %8s %8s %12s %12s\n" "scheduler" "inc-sat" "tgs-sat"
    "fails" "killed" "requeue" "cancel" "resched-p50" "downtime-p50";
  List.iter
    (fun scheduler ->
      let reports =
        List.map
          (fun seed ->
            report_for
              {
                (spec ~scheduler ~mu:0.5 ~setup:Sim.Cluster.Homogeneous ~seed) with
                faults = Some fault_spec;
              })
          seeds
      in
      let mean f = Experiment.mean_over f reports in
      let p50 h = if Obs.Histogram.count h = 0 then 0.0 else Obs.Histogram.quantile h 0.5 in
      let resched =
        Obs.Histogram.merged (List.map (fun (r : Metrics.report) -> r.time_to_reschedule) reports)
      in
      let downtime =
        Obs.Histogram.merged (List.map (fun (r : Metrics.report) -> r.node_downtime) reports)
      in
      Printf.printf "%-20s %8.3f %8.1f %8.1f %8.1f %8.1f %8.1f %12.3f %12.3f\n" scheduler
        (mean Metrics.inc_satisfaction_ratio)
        (mean (fun r -> float_of_int r.Metrics.tgs_satisfied))
        (mean (fun r -> float_of_int r.Metrics.node_fails))
        (mean (fun r -> float_of_int r.Metrics.tasks_killed))
        (mean (fun r -> float_of_int r.Metrics.requeues))
        (mean (fun r -> float_of_int r.Metrics.fault_cancels))
        (p50 resched) (p50 downtime))
    schedulers

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let csv_path = Filename.concat "results" "bench_results.csv"

let () =
  Printf.printf "HIRE reproduction benchmark harness\n";
  Printf.printf "seeds=%d horizon=%.0fs mus=[%s] fat-tree k=%d jobs=%d\n"
    (List.length seeds) horizon
    (String.concat "; " (List.map (Printf.sprintf "%.2f") mus))
    Experiment.default.Experiment.k jobs;
  prime ();
  tab3 ();
  let homog = Sim.Cluster.Homogeneous and het = Sim.Cluster.Heterogeneous in
  (* Homogeneous block (Fig. 8a-8e). *)
  fig8_satisfied ~tag:"fig8a" ~setup:homog;
  fig8_unserved_tgs ~tag:"fig8b" ~setup:homog;
  fig8_detours ~tag:"fig8c" ~setup:homog;
  fig8_switch_usage ~tag:"fig8d" ~setup:homog;
  fig8_latency ~tag:"fig8e" ~setup:homog;
  (* Heterogeneous block (Fig. 8f-8j). *)
  fig8_satisfied ~tag:"fig8f" ~setup:het;
  fig8_unserved_tgs ~tag:"fig8g" ~setup:het;
  fig8_detours ~tag:"fig8h" ~setup:het;
  fig8_switch_usage ~tag:"fig8i" ~setup:het;
  fig8_latency ~tag:"fig8j" ~setup:het;
  (* Fig. 7 uses the solver samples collected by the HIRE runs above plus
     a dedicated mu=0 run. *)
  fig7 ();
  ablations ();
  if faults_enabled then fault_bench ();
  Runner.Cache.ensure_dir "results";
  Sim.Csv_export.write_file csv_path
    (List.map
       (fun (s : Experiment.spec) ->
         Sim.Csv_export.row ~scheduler:s.scheduler ~mu:s.mu ~setup:s.setup ~seed:s.seed
           (report_for s))
       csv_specs);
  Printf.printf "\nper-cell rows written to %s\n" csv_path;
  Printf.printf "\ndone.\n"
