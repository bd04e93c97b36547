(* The benchmark's copy of [Harness.Experiment.prepare], with every
   world-building call and every scheduler callback timed from outside.

   The RNG split order (trace, scenario, cluster, fault) is the one
   [Experiment.prepare] uses, so a cell built here without [closed] is
   the cell [Experiment.run] simulates; test_perf.ml pins that down.
   The scheduler record [Schedulers.Registry.create] returns is replaced
   by a pass-through record whose [round] is timed on every call (two
   clock reads) and, in the traced run, whose other callbacks open
   spans. *)

module E = Harness.Experiment
module Rng = Prelude.Rng
module Clock = Prelude.Clock
module Intf = Sim.Scheduler_intf

(* What the wrapped schedulers observed, over every cell of a run. *)
type probe = {
  round_lat : Samples.t;  (* host seconds per [round] call *)
  solve_lat : Samples.t;  (* [round_result.solver_wall], per solve *)
  mutable useful_rounds : int;  (* rounds that placed at least one task *)
  mutable round_s : float;  (* sum of [round_lat] *)
  mutable placed : int;  (* tasks placed *)
}

let probe () =
  { round_lat = Samples.create (); solve_lat = Samples.create (); useful_rounds = 0; round_s = 0.0;
    placed = 0 }

let wrap probe (s : Intf.t) : Intf.t =
  let timed ~time =
    let t0 = Clock.now () in
    let r = s.round ~time in
    let dt = Clock.now () -. t0 in
    Samples.add probe.round_lat dt;
    probe.round_s <- probe.round_s +. dt;
    if r.Intf.placements <> [] then probe.useful_rounds <- probe.useful_rounds + 1;
    probe.placed <- probe.placed + List.length r.Intf.placements;
    Option.iter (Samples.add probe.solve_lat) r.Intf.solver_wall;
    r
  in
  if not (Spans.enabled ()) then { s with round = timed }
  else
    {
      s with
      round = (fun ~time -> Spans.span "schedulers.round" (fun () -> timed ~time));
      submit = (fun ~time p -> Spans.span "schedulers.submit" (fun () -> s.submit ~time p));
      on_task_complete =
        (fun ~time ~tg ~machine ->
          Spans.span "schedulers.complete" (fun () -> s.on_task_complete ~time ~tg ~machine));
    }

(* A closed-loop cell: the jobs [gen] draws replace the generated trace,
   and are fed so that [in_flight] of them are in the system at a time;
   the next one enters as soon as one finishes.  The jobs and their INC
   requests (the trace and scenario streams) come from [seed], not from
   the cell's seed, which still draws the cluster and the scheduler.
   With [rounds], the cell stops after that many scheduling rounds. *)
type closed = {
  seed : int;
  gen : Rng.t -> Workload.Job.t list;
  in_flight : int;
  rounds : int option;
}

(* Without [closed], exactly [Experiment.prepare]; with it, the scenario's
   arrivals are held back and returned for the feeder. *)
let prepare ?closed probe (spec : E.spec) =
  if spec.faults <> None then invalid_arg "World.prepare: fault plans are not benchmarked";
  Spans.span "harness.prepare" @@ fun () ->
  let rng = Rng.create spec.seed in
  let trace_rng = Rng.split rng in
  let scenario_rng = Rng.split rng in
  let cluster_rng = Rng.split rng in
  let (_fault_rng : Rng.t) = Rng.split rng in
  let trace_rng, scenario_rng =
    match closed with
    | None -> (trace_rng, scenario_rng)
    | Some c ->
        let jobs_rng = Rng.create c.seed in
        let t = Rng.split jobs_rng in
        (t, Rng.split jobs_rng)
  in
  let store = Hire.Comp_store.default () in
  let services = Array.to_list (Hire.Comp_store.service_names store) in
  let cluster =
    Spans.span "topology.cluster_create" (fun () ->
        Sim.Cluster.create ?inc_capable_fraction:spec.inc_capable_fraction ~k:spec.k
          ~setup:spec.setup ~services cluster_rng)
  in
  let jobs =
    Spans.span "workload.trace_gen" (fun () ->
        match closed with
        | Some c -> c.gen trace_rng
        | None ->
            let trace_config =
              Workload.Trace_gen.scaled_rate
                ~n_servers:(Sim.Cluster.n_servers cluster)
                ~target_utilization:spec.target_utilization Workload.Trace_gen.default
            in
            Workload.Trace_gen.generate trace_config trace_rng ~horizon:spec.horizon)
  in
  let scenario =
    Spans.span "workload.scenario_build" (fun () ->
        Sim.Scenario.build store scenario_rng ~mu:spec.mu jobs)
  in
  let sched =
    Spans.span "schedulers.create" (fun () ->
        Schedulers.Registry.create ?resilience:spec.resilience ~incremental:spec.incremental
          ~reopt:spec.reopt ~portfolio:spec.portfolio spec.scheduler ~seed:spec.seed cluster)
  in
  let arrivals = scenario.Sim.Scenario.arrivals in
  let held = closed <> None in
  let sim =
    Spans.span "sim.init" (fun () ->
        Sim.Simulator.init cluster (wrap probe sched) (if held then [] else arrivals))
  in
  (sim, if held then arrivals else [])

(* ------------------------------------------------------------------ *)
(* Closed-loop feeding                                                 *)
(* ------------------------------------------------------------------ *)

type group = {
  job : int;
  count : int;
  mutable placed : int;
  mutable completed : int;
  mutable cancelled : bool;
  mutable resolved : bool;
}

(* Which fed jobs are still in the system, read from the WAL records the
   simulator emits: a job leaves once each of its groups has finished
   all its tasks, or was cancelled and finished the ones it had placed. *)
type feeder = {
  groups : (int, group) Hashtbl.t;  (* tg id -> group *)
  open_groups : (int, int) Hashtbl.t;  (* job id -> unresolved groups *)
  mutable queue : (float * Hire.Poly_req.t) list;  (* not fed yet *)
  mutable live : int;
}

let resolve f g =
  if (not g.resolved) && g.completed = g.placed && (g.cancelled || g.completed = g.count) then begin
    g.resolved <- true;
    match Hashtbl.find_opt f.open_groups g.job with
    | Some 1 ->
        Hashtbl.remove f.open_groups g.job;
        f.live <- f.live - 1
    | Some n -> Hashtbl.replace f.open_groups g.job (n - 1)
    | None -> ()
  end

let observe f (r : Sim.Wal.record) =
  let with_group tg k = Option.iter k (Hashtbl.find_opt f.groups tg) in
  match r with
  | Sim.Wal.Round { placements; cancelled; _ } ->
      List.iter (fun (tg, _) -> with_group tg (fun g -> g.placed <- g.placed + 1)) placements;
      List.iter
        (fun tg ->
          with_group tg (fun g ->
              g.cancelled <- true;
              resolve f g))
        cancelled
  | Sim.Wal.Complete { tg_id; _ } ->
      with_group tg_id (fun g ->
          g.completed <- g.completed + 1;
          resolve f g)
  | _ -> ()

let feed f sim ~in_flight =
  let rec go () =
    match f.queue with
    | (_, poly) :: rest when f.live < in_flight ->
        f.queue <- rest;
        f.live <- f.live + 1;
        let tgs = poly.Hire.Poly_req.task_groups in
        Hashtbl.replace f.open_groups poly.Hire.Poly_req.job_id (List.length tgs);
        List.iter
          (fun (tg : Hire.Poly_req.task_group) ->
            Hashtbl.replace f.groups tg.tg_id
              { job = tg.job_id; count = tg.count; placed = 0; completed = 0; cancelled = false;
                resolved = false })
          tgs;
        Sim.Simulator.inject sim ~time:(Sim.Simulator.now sim) poly;
        go ()
    | _ -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* One cell                                                            *)
(* ------------------------------------------------------------------ *)

type cell = {
  report : Sim.Metrics.report;
  setup_s : float;  (* [prepare] *)
  run_s : float;  (* first [step] until [finish] returns *)
  events : int;
  rounds : int;
  round_s : float;  (* host seconds in [round] calls *)
  placed : int;  (* tasks the scheduler placed *)
  ledger : (unit, string) result;  (* [Simulator.ledger_check] after [finish] *)
}

let run_cell ?closed (probe : probe) spec =
  Spans.span "bench.cell" @@ fun () ->
  let t0 = Clock.now () in
  let placed0 = probe.placed in
  let rounds0 = Samples.count probe.round_lat and round_s0 = probe.round_s in
  let sim, held = prepare ?closed probe spec in
  let t1 = Clock.now () in
  let step emit =
    if Spans.enabled () then Spans.span "sim.step" (fun () -> Sim.Simulator.step ?emit sim)
    else Sim.Simulator.step ?emit sim
  in
  Spans.span "bench.steps" (fun () ->
      match closed with
      | None ->
          while step None do
            ()
          done
      | Some { in_flight; rounds; _ } ->
          let f =
            { groups = Hashtbl.create 1024; open_groups = Hashtbl.create 64; queue = held; live = 0 }
          in
          let emit = Some (observe f) in
          let more () =
            match rounds with Some n -> Sim.Simulator.rounds sim < n | None -> true
          in
          feed f sim ~in_flight;
          while more () && step emit do
            feed f sim ~in_flight
          done);
  let result = Spans.span "sim.finish" (fun () -> Sim.Simulator.finish sim) in
  let t2 = Clock.now () in
  let ledger = Spans.span "bench.check" (fun () -> Sim.Simulator.ledger_check sim) in
  {
    report = result.Sim.Simulator.report;
    setup_s = t1 -. t0;
    run_s = t2 -. t1;
    events = result.Sim.Simulator.events_processed;
    rounds = Samples.count probe.round_lat - rounds0;
    round_s = probe.round_s -. round_s0;
    placed = probe.placed - placed0;
    ledger;
  }

(* A tiny open-loop cell that still schedules work: k=4, 240 s of trace
   at twice the nominal load. *)
let tiny ~scheduler ~seed =
  { E.default with scheduler; k = 4; horizon = 240.0; target_utilization = 2.0; seed }

(* Hex digest of every deterministic field of a report: everything but
   [solver_wall], which holds measured wall times.  Floats are rendered
   with %h, so equal digests mean bit-equal reports. *)
let digest (r : Sim.Metrics.report) =
  let b = Buffer.create 1024 in
  let i x = Printf.bprintf b "%d;" x in
  let f x = Printf.bprintf b "%h;" x in
  let h x =
    let r = Obs.Histogram.to_raw x in
    f r.Obs.Histogram.r_lo;
    f r.r_log_gamma;
    Array.iter i r.r_counts;
    List.iter i [ r.r_underflow; r.r_overflow; r.r_count ];
    List.iter f [ r.r_sum; r.r_vmin; r.r_vmax ]
  in
  List.iter i
    [ r.jobs_total; r.inc_jobs_total; r.inc_jobs_served; r.inc_tgs_total; r.inc_tgs_unserved;
      r.tgs_total; r.tgs_satisfied; r.detour_samples ];
  List.iter f [ r.detour_mean; r.span_mean ];
  Array.iter f r.switch_load;
  h r.placement_latency;
  i r.rounds;
  f r.think_total;
  List.iter i
    [ r.node_fails; r.node_recoveries; r.tasks_killed; r.requeues; r.fault_cancels;
      r.tgs_cancelled ];
  h r.time_to_reschedule;
  h r.node_downtime;
  List.iter i
    [ r.degraded_rounds; r.fallback_rounds; r.fallback_depth_max; r.guard_trips;
      r.salvaged_tasks ];
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [Some reason] when the benchmark's copy of the world-building does not
   build the tiny cell [Experiment.run] builds. *)
let unfaithful ~scheduler ~seed =
  let spec = tiny ~scheduler ~seed in
  let ours = digest (run_cell (probe ()) spec).report in
  let theirs = digest (E.run spec) in
  if ours = theirs then None
  else Some (Printf.sprintf "%s: benchmark world %s <> Experiment.run %s" scheduler ours theirs)
