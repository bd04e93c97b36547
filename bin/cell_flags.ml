(* The command-line spelling of one experiment cell of the paper's sweep
   (§6): a ⟨scheduler, μ, switch setup⟩ on a fat-tree, with its load,
   INC-capable fraction, fault plan and solver resilience.  hire_sim,
   hire_sweep and hire_service all take these flags from here, so each
   has one definition and one help text, and turns into a
   [Harness.Experiment.spec] in one place.

   Bad names raise [Failure] with a one-line message; each binary prints
   it as "<binary>: <message>" and exits 1. *)

open Cmdliner
module Experiment = Harness.Experiment

let check_scheduler name =
  if not (List.mem name Schedulers.Registry.names) then
    failwith
      (Printf.sprintf "unknown scheduler %S (known: %s)" name
         (String.concat ", " Schedulers.Registry.names))

let parse_setup = function
  | "homogeneous" | "homog" -> Sim.Cluster.Homogeneous
  | "heterogeneous" | "het" -> Sim.Cluster.Heterogeneous
  | other -> failwith (Printf.sprintf "unknown setup %S (homogeneous|heterogeneous)" other)

(* --- the ⟨scheduler, μ, setup⟩ of one cell (hire_sim, hire_service;
   hire_sweep takes lists of them) --- *)

let scheduler =
  let doc = "Scheduler to run: " ^ String.concat ", " Schedulers.Registry.names ^ "." in
  Arg.(value & opt string "hire" & info [ "scheduler"; "s" ] ~docv:"NAME" ~doc)

let mu =
  let doc = "Target ratio of jobs requesting INC resources (the paper's sweep axis)." in
  Arg.(value & opt float 1.0 & info [ "mu" ] ~docv:"RATIO" ~doc)

let setup =
  let doc = "Switch capability setup: homogeneous or heterogeneous (2 services/switch)." in
  Arg.(value & opt string "homogeneous" & info [ "setup" ] ~docv:"SETUP" ~doc)

(* [cell base ~scheduler ~mu ~setup] checks the setup, then the
   scheduler, and places the cell on [base]. *)
let cell (base : Experiment.spec) ~scheduler ~mu ~setup =
  let setup = parse_setup setup in
  check_scheduler scheduler;
  { base with scheduler; mu; setup }

(* --- the base spec: cluster, load and fault plan --- *)

let base =
  let k =
    let doc = "Fat-tree arity (k=26 is the paper's 4394-server testbed)." in
    Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc)
  in
  let horizon =
    let doc = "Trace length in simulated seconds." in
    Arg.(value & opt float 400.0 & info [ "horizon" ] ~docv:"SECONDS" ~doc)
  in
  let util =
    let doc = "Offered CPU load of the generated trace." in
    Arg.(value & opt float 0.8 & info [ "util" ] ~docv:"FRACTION" ~doc)
  in
  let fraction =
    let doc =
      "Fraction of switches that are INC-capable (default: k/26, keeping the paper's \
       servers-per-INC-switch ratio)."
    in
    Arg.(value & opt (some float) None & info [ "inc-capable" ] ~docv:"FRACTION" ~doc)
  in
  let faults_on =
    let doc =
      "Enable deterministic fault injection: servers and switches fail and recover \
       following seeded exponential MTBF/MTTR draws; killed task groups are requeued \
       with exponential backoff.  Fault model and metrics: docs/FAULTS.md."
    in
    Arg.(value & flag & info [ "faults" ] ~doc)
  in
  let mtbf =
    let doc = "Mean time between failures per node, simulated seconds (with $(b,--faults))." in
    Arg.(value & opt float 200.0 & info [ "mtbf" ] ~docv:"SECONDS" ~doc)
  in
  let mttr =
    let doc = "Mean time to repair per node, simulated seconds (with $(b,--faults))." in
    Arg.(value & opt float 30.0 & info [ "mttr" ] ~docv:"SECONDS" ~doc)
  in
  let max_retries =
    let doc =
      "Requeue attempts per task group hit by a failure before it is cancelled (with \
       $(b,--faults))."
    in
    Arg.(value & opt int 3 & info [ "max-retries" ] ~docv:"N" ~doc)
  in
  let make k horizon util fraction faults_on mtbf mttr max_retries =
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
    {
      Experiment.default with
      k;
      horizon;
      target_utilization = util;
      inc_capable_fraction = fraction;
      faults;
    }
  in
  Term.(const make $ k $ horizon $ util $ fraction $ faults_on $ mtbf $ mttr $ max_retries)

(* --- solver resilience (hire_sim, hire_sweep) --- *)

let resilience =
  let solver_budget =
    let doc =
      "Cap each MCMF solve at $(docv) of monotonic wall clock.  An exhausted solve \
       degrades gracefully: partial SSP flow is salvaged, and the round falls back \
       along the solver chain down to a greedy placer (docs/RESILIENCE.md).  Only \
       meaningful for flow-based schedulers."
    in
    Arg.(value & opt (some float) None & info [ "solver-budget" ] ~docv:"SECONDS" ~doc)
  in
  let solver_steps =
    let doc =
      "Cap each MCMF solve at $(docv) solver steps (SSP augmentations; cost-scaling \
       pushes+relabels), composable with $(b,--solver-budget)."
    in
    Arg.(value & opt (some int) None & info [ "solver-steps" ] ~docv:"N" ~doc)
  in
  let guard =
    let doc =
      "Run the runtime invariant guard on every $(docv)-th solve: re-verify the live \
       flow from first principles and cross-check extracted placements against the \
       capacity ledgers; a violation quarantines the solution and re-runs the round on \
       the next solver backend.  0 disables the guard."
    in
    Arg.(value & opt int 0 & info [ "guard" ] ~docv:"N" ~doc)
  in
  let make solver_budget solver_steps guard =
    if solver_budget = None && solver_steps = None && guard = 0 then None
    else
      let budget =
        if solver_budget = None && solver_steps = None then None
        else Some (Flow.Budget.make ?max_wall_s:solver_budget ?max_steps:solver_steps ())
      in
      Some (Hire.Hire_scheduler.resilience ?budget ~guard_every:guard ())
  in
  Term.(const make $ solver_budget $ solver_steps $ guard)
