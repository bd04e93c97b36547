let header =
  String.concat ","
    [
      "scheduler";
      "mu";
      "setup";
      "seed";
      "jobs";
      "inc_jobs";
      "inc_jobs_served";
      "inc_satisfaction";
      "inc_tgs";
      "inc_tgs_unserved";
      "tgs_total";
      "tgs_satisfied";
      "detour_mean";
      "span_mean";
      "load_recirc";
      "load_stages";
      "load_sram";
      "latency_p50_s";
      "latency_p99_s";
      "solver_p50_ms";
      "rounds";
    ]

let fault_columns =
  [
    "node_fails";
    "node_recoveries";
    "tasks_killed";
    "requeues";
    "fault_cancels";
    "reschedule_p50_s";
    "downtime_p50_s";
  ]

let resilience_columns =
  [
    "degraded_rounds"; "fallback_rounds"; "fallback_depth_max"; "guard_trips";
    "salvaged_tasks";
  ]

let full_header ?(faults = false) ?(resilience = false) () =
  let cols = if faults then [ header; String.concat "," fault_columns ] else [ header ] in
  let cols = if resilience then cols @ [ String.concat "," resilience_columns ] else cols in
  String.concat "," cols

let quantile_or_zero q h = if Obs.Histogram.count h = 0 then 0.0 else Obs.Histogram.quantile h q

let row ?(faults = false) ?(resilience = false) ~scheduler ~mu ~setup ~seed
    (r : Metrics.report) =
  let base =
    Printf.sprintf
      "%s,%.3f,%s,%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%.4f,%.4f,%.5f,%.5f,%.5f,%.4f,%.4f,%.4f,%d"
      scheduler mu
      (Cluster.inc_setup_to_string setup)
      seed r.jobs_total r.inc_jobs_total r.inc_jobs_served
      (Metrics.inc_satisfaction_ratio r)
      r.inc_tgs_total r.inc_tgs_unserved r.tgs_total r.tgs_satisfied r.detour_mean r.span_mean
      r.switch_load.(0) r.switch_load.(1) r.switch_load.(2)
      (quantile_or_zero 0.5 r.placement_latency)
      (quantile_or_zero 0.99 r.placement_latency)
      (1000.0 *. quantile_or_zero 0.5 r.solver_wall)
      r.rounds
  in
  let base =
    if not faults then base
    else
      base
      ^ Printf.sprintf ",%d,%d,%d,%d,%d,%.4f,%.4f" r.node_fails r.node_recoveries
          r.tasks_killed r.requeues r.fault_cancels
          (quantile_or_zero 0.5 r.time_to_reschedule)
          (quantile_or_zero 0.5 r.node_downtime)
  in
  if not resilience then base
  else
    base
    ^ Printf.sprintf ",%d,%d,%d,%d,%d" r.degraded_rounds r.fallback_rounds
        r.fallback_depth_max r.guard_trips r.salvaged_tasks

let write_file ?(faults = false) ?(resilience = false) path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (full_header ~faults ~resilience ());
      output_char oc '\n';
      List.iter
        (fun r ->
          output_string oc r;
          output_char oc '\n')
        rows)
