(* The simulation workloads.

   Each workload has a fixed pool of units; a unit is one cell per
   scheduler of the workload, all with the same seed, so every unit
   weighs the schedulers alike.  A run makes passes over the pool, one
   cell after another in this process, until the run's time is up, and
   reports each cell's median over the passes.  The pool, not the host's
   speed, fixes which cells a run measures, and each cell is measured at
   moments several seconds apart.  Cells are closed loops of jobs drawn
   from the repo's trace model (see [trace_jobs]): a fixed number of jobs
   is in the system at a time, where the paper's open-loop cells build a
   backlog whose cost swings up to 2.5x from one seed to the next, which
   no run of a few seconds averages away.

   Layers are timed from outside: [World] times the world-building calls
   and the scheduler callbacks, this file the [Simulator.step] loop, and
   the traced run reads the program's own Obs histograms on top. *)

module E = Harness.Experiment
module Clock = Prelude.Clock
module Rng = Prelude.Rng

type t = {
  name : string;
  schedulers : string list;
  k : int;
  mu : float;
  inc_fraction : float option;  (* [None]: the cluster's default, k/26 *)
  jobs : int;  (* per cell *)
  in_flight : int;
  rounds : int option;  (* stop each cell after this many rounds *)
  pool : int;  (* units per pass: a pass takes about 60 % of a 30 s run *)
}

let workloads =
  [
    {
      name = "sim-k8";
      schedulers = [ "hire" ];
      k = 8;
      mu = 0.5;
      inc_fraction = Some 0.5;
      jobs = 40;
      in_flight = 20;
      rounds = None;
      pool = 64;
    };
    {
      name = "sim-k26";
      schedulers = [ "hire" ];
      k = 26;
      mu = 1.0;
      inc_fraction = Some 1.0;
      jobs = 16;
      in_flight = 16;
      rounds = Some 1;
      pool = 12;
    };
    {
      name = "sim-baselines";
      schedulers = [ "yarn-concurrent"; "k8-concurrent"; "sparrow-concurrent" ];
      k = 16;
      mu = 0.5;
      inc_fraction = None;
      jobs = 300;
      in_flight = 80;
      rounds = None;
      pool = 12;
    };
  ]

(* The first [n] jobs of the repo's own trace model,
   [Workload.Trace_gen.default].  The horizon holds twice [n] arrivals on
   average; the feeder injects each job at the current time, so the
   arrival times are not used. *)
let trace_jobs n rng =
  let config = Workload.Trace_gen.default in
  let horizon = 2.0 *. float_of_int n /. config.arrival_rate in
  List.filteri (fun i _ -> i < n) (Workload.Trace_gen.generate config rng ~horizon)

(* The jobs of unit [unit] and their INC requests are drawn from seed
   [unit], whatever the run's seed: with the trace's heavy tails (up to
   600 tasks in one job) the cost of a cell varied by a CV of 25 % from
   one trace sample to the next, and with the trace fixed, by 10-26 % from
   one draw of INC requests to the next, so a run's mean moved with its
   seed by more than the host's noise.  The run's seed draws the cluster
   (which switches are INC-capable and which services they host) and the
   schedulers' own random choices. *)
let closed w ~unit = { World.seed = unit; gen = trace_jobs w.jobs; in_flight = w.in_flight; rounds = w.rounds }

let spec w ~scheduler ~seed =
  { E.default with scheduler; k = w.k; mu = w.mu; inc_capable_fraction = w.inc_fraction; seed; horizon = 0.0 }

(* Distinct cell seeds for every (run seed, unit) pair. *)
let cell_seed seed unit = (seed * 100_000) + unit

type cell_result = {
  unit : int;
  pass : int;
  scheduler : string;
  cell : World.cell;
  digest : string;
  factor : float;  (* the unit's [Calibration.sample] *)
}

(* Set-up time alone: [World.prepare] of cells that are never run, the
   schedulers of the workload in turn, [probes_per_unit] after every
   unit.  One takes 0.5-6 ms.  Made all at the start, their median moved
   with whatever phase the host was in then. *)
let probes_per_unit = 4

let probe_setup w ~seed i =
  let scheduler = List.nth w.schedulers (i mod List.length w.schedulers) in
  let spec = spec w ~scheduler ~seed:(cell_seed seed (50_000 + i)) in
  let t0 = Clock.now () in
  ignore (World.prepare ~closed:(closed w ~unit:i) (World.probe ()) spec : Sim.Simulator.t * _);
  Clock.now () -. t0

type run = {
  cells : cell_result list;  (* in run order *)
  setups : float list;  (* [probe_setup]s, each scaled by the factor of the unit before it *)
  rss_mb : float;  (* VmHWM once the first pass is done *)
  probe : World.probe;
  calibration : Calibration.t;
  gc : float * float * int;  (* minor words, major words, major collections, in cells *)
  measured_s : float;
}

(* Passes over the pool: exactly [`Passes n], or with [`Until deadline]
   the whole first pass and then units while one more fits before the
   deadline at the mean unit time so far.  After each unit come its
   reference-kernel samples and its set-up probes.  Peak RSS is read
   after the first pass: later passes repeat its cells. *)
let run w ~seed budget =
  let t_start = Clock.now () in
  let probe = World.probe () in
  let calibration = Calibration.create () in
  let setups = ref [] in
  let minor = ref 0.0 and major = ref 0.0 and collections = ref 0 in
  let t0 = Clock.now () in
  let units_run = ref 0 in
  let more ~pass =
    match budget with
    | `Passes n -> pass < n
    | `Until deadline ->
        let now = Clock.now () in
        pass = 0 || now +. ((now -. t0) /. float_of_int !units_run) <= deadline
  in
  let rss_mb = ref 0.0 in
  let rec go ~pass u acc =
    if u = w.pool then begin
      if pass = 0 then rss_mb := Result.peak_rss_mb ();
      go ~pass:(pass + 1) 0 acc
    end
    else if not (more ~pass) then List.rev acc
    else begin
      let g0 = Gc.quick_stat () and u0 = Clock.now () in
      let cells =
        List.mapi
          (fun i scheduler ->
            Spans.set_group (List.length acc + i);
            ( scheduler,
              World.run_cell ~closed:(closed w ~unit:u) probe
                (spec w ~scheduler ~seed:(cell_seed seed u)) ))
          w.schedulers
      in
      let busy_s = Clock.now () -. u0 and g1 = Gc.quick_stat () in
      minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      major := !major +. (g1.Gc.major_words -. g0.Gc.major_words);
      collections := !collections + (g1.Gc.major_collections - g0.Gc.major_collections);
      let factor = Calibration.sample calibration ~busy_s in
      for i = 1 to probes_per_unit do
        setups := (factor *. probe_setup w ~seed ((!units_run * probes_per_unit) + i)) :: !setups
      done;
      incr units_run;
      let acc =
        List.fold_left
          (fun acc (scheduler, cell) ->
            { unit = u; pass; scheduler; cell; digest = World.digest cell.World.report; factor } :: acc)
          acc cells
      in
      go ~pass (u + 1) acc
    end
  in
  let cells = go ~pass:0 0 [] in
  {
    cells;
    setups = !setups;
    rss_mb = !rss_mb;
    probe;
    calibration;
    gc = (!minor, !major, !collections);
    measured_s = Clock.now () -. t_start;
  }

let passes r = List.fold_left (fun n c -> max n (c.pass + 1)) 0 r.cells
let first_pass r = List.filter (fun c -> c.pass = 0) r.cells
let jobs r = List.fold_left (fun n c -> n + c.cell.World.report.Sim.Metrics.jobs_total) 0 r.cells

(* Host seconds of the first pass, which a traced run repeats, at the
   reference speed. *)
let run_s r = List.fold_left (fun s c -> s +. (c.factor *. c.cell.World.run_s)) 0.0 (first_pass r)

(* The median over passes of [f] of each cell of the pool, in pool
   order. *)
let per_cell r f =
  List.map
    (fun c0 ->
      let same c = c.unit = c0.unit && c.scheduler = c0.scheduler in
      (c0, Samples.median_list (List.filter_map (fun c -> if same c then Some (f c) else None) r.cells)))
    (first_pass r)

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

(* Digests of the cells of seed 1, one line each: workload, unit,
   scheduler, digest.  Regenerate with [perf.exe digests]. *)
let digest_file = "bench/perf/digests.txt"

let recorded_digests () =
  match In_channel.with_open_bin digest_file In_channel.input_all with
  | exception Sys_error _ -> []
  | s ->
      String.split_on_char '\n' s
      |> List.filter_map (fun l ->
             match String.split_on_char ' ' (String.trim l) with
             | [ w; u; sched; dg ] -> Some ((w, int_of_string u, sched), dg)
             | _ -> None)

(* A cell fails when its ledgers disagree with its running tasks, when a
   job was never fed, when its digest differs from the one recorded for
   the same cell, or when a later pass over the same cell ends
   differently from the first. *)
let failures w ~seed r =
  let recorded = if seed = 1 then recorded_digests () else [] in
  let first = List.map (fun c -> ((c.unit, c.scheduler), c.digest)) (first_pass r) in
  List.filter_map
    (fun c ->
      let rp = c.cell.World.report in
      let differs expected = match expected with Some dg -> dg <> c.digest | None -> false in
      let why =
        match c.cell.World.ledger with
        | Error e -> Some ("ledger: " ^ e)
        | Ok () when rp.Sim.Metrics.jobs_total <> w.jobs ->
            Some (Printf.sprintf "%d of %d jobs entered" rp.jobs_total w.jobs)
        | Ok () when differs (List.assoc_opt (w.name, c.unit, c.scheduler) recorded) ->
            Some ("digest " ^ c.digest ^ " differs from the recorded one")
        | Ok () when differs (List.assoc_opt (c.unit, c.scheduler) first) ->
            Some ("digest " ^ c.digest ^ " differs from the first pass")
        | Ok () -> None
      in
      Option.map
        (fun why -> Printf.sprintf "unit %d pass %d %s: %s" c.unit c.pass c.scheduler why)
        why)
    r.cells

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let ms x = 1e3 *. x

(* Every cell of the pool counts with its median over the passes.
   [latency_ms] is the mean over the pool of each cell's host seconds per
   round, so every cell weighs alike: pooled over all rounds, the latency
   moved with how many cheap rounds the seed made.  [throughput_per_s] is
   the pool's placements over the sum of its cells' run times.  All
   three times are read at the reference speed, each cell's by the factor
   of its unit ([Calibration.sample]). *)
let end_to_end r =
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  let per_round c = c.factor *. c.cell.World.round_s /. float_of_int (max 1 c.cell.World.rounds) in
  let latency = per_cell r per_round and run_time = per_cell r (fun c -> c.factor *. c.cell.World.run_s) in
  let placed = List.fold_left (fun n (c, _) -> n + c.cell.World.placed) 0 run_time in
  ( [
      ("setup_s", Samples.median_list r.setups);
      ("latency_ms", ms (mean (List.map snd latency)));
      ("throughput_per_s", float_of_int placed /. List.fold_left (fun s (_, t) -> s +. t) 0.0 run_time);
      ("peak_rss_mb", r.rss_mb);
    ],
    [ ("cells", List.length r.cells); ("pool_cells", List.length latency); ("passes", passes r);
      ("rounds", Samples.count r.probe.World.round_lat); ("jobs", jobs r);
      ("setup_probes", List.length r.setups); ("kernel_samples", Calibration.samples r.calibration) ] )

let hist name = List.assoc_opt name (Obs.Registry.histograms ())
let hist_sum name = Option.fold ~none:0.0 ~some:Obs.Histogram.sum (hist name)
let hist_mean name = Option.fold ~none:0.0 ~some:Obs.Histogram.mean (hist name)
let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.Registry.counters ()))

let tail s q = Option.value ~default:0.0 (Samples.percentile s q)
let per a b = if b > 0.0 then a /. b else 0.0
let fi = float_of_int

(* Mean seconds per span of that name. *)
let mean_span name = per (Spans.total name) (fi (Spans.count name))

(* The traced run's per-layer section.  [base] is the untraced run over
   the same units, for the tracing overhead. *)
let per_layer r ~base =
  let rounds = fi (Samples.count r.probe.World.round_lat) in
  let solves = fi (Samples.count r.probe.World.solve_lat) in
  let jobs = fi (jobs r) in
  let events = fi (List.fold_left (fun n c -> n + c.cell.World.events) 0 r.cells) in
  let round_s = Samples.sum r.probe.World.round_lat in
  let build_s = hist_sum "hire.build_s" and solve_s = Samples.sum r.probe.World.solve_lat in
  let minor, major, collections = r.gc in
  let full = fi (counter "hire.net.full_rebuilds") in
  let patched = fi (counter "hire.net.patched_builds") in
  let bucket = fi (counter "flow.queue.bucket") and heap = fi (counter "flow.queue.heap") in
  let build_p99 =
    match hist "hire.build_s" with
    | Some h when Samples.enough_beyond (Obs.Histogram.count h) 0.99 -> Obs.Histogram.quantile h 0.99
    | _ -> 0.0
  in
  Spans.graft ~under:"schedulers.round" "hire.build" build_s (counter "hire.rounds");
  Spans.graft ~under:"schedulers.round" "flow.solve" solve_s (int_of_float solves);
  [
    ("harness.prepare_s", mean_span "harness.prepare");
    ("topology.cluster_create_s", mean_span "topology.cluster_create");
    ("workload.trace_gen_s", mean_span "workload.trace_gen");
    ("workload.scenario_build_s", mean_span "workload.scenario_build");
    ("schedulers.create_s", mean_span "schedulers.create");
    ("schedulers.round_p50_ms", ms (tail r.probe.World.round_lat 0.5));
    ("schedulers.round_p90_ms", ms (tail r.probe.World.round_lat 0.9));
    ("schedulers.round_p99_ms", ms (tail r.probe.World.round_lat 0.99));
    ("schedulers.rounds_per_job", per rounds jobs);
    ("schedulers.useful_round_ratio", per (fi r.probe.World.useful_rounds) rounds);
    ("schedulers.submit_us", 1e6 *. mean_span "schedulers.submit");
    ("schedulers.complete_us", 1e6 *. mean_span "schedulers.complete");
    ("hire.build_ms", ms (per build_s rounds));
    ("hire.build_p99_ms", ms build_p99);
    ("hire.other_ms", if build_s > 0.0 then ms (per (round_s -. build_s -. solve_s) rounds) else 0.0);
    ("hire.net.arcs_mean", hist_mean "hire.net.total_arcs");
    ("hire.net.touched_ratio", per (hist_sum "hire.net.touched_arcs") (hist_sum "hire.net.total_arcs"));
    ("hire.net.full_rebuild_ratio", per full (full +. patched));
    ("flow.solve_ms", ms (per solve_s solves));
    ("flow.solve_p99_ms", ms (tail r.probe.World.solve_lat 0.99));
    ("flow.solves_per_round", per solves rounds);
    ("flow.bucket_ratio", per bucket (bucket +. heap));
    ("sim.step_self_us", 1e6 *. per (Spans.self_time "sim.step") events);
    ("sim.events_per_job", per events jobs);
    ("sim.finish_ms", ms (mean_span "sim.finish"));
    ("runtime.minor_words_per_op", per minor jobs);
    ("runtime.major_words_per_op", per major jobs);
    ("runtime.major_collections_per_kop", 1e3 *. per (fi collections) jobs);
    ("obs.overhead_ratio", per (run_s r) (run_s base));
    ("bench.unattributed_ratio", Spans.unattributed_ratio ());
  ]
