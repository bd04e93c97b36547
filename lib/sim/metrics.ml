module Vec = Prelude.Vec
module Poly_req = Hire.Poly_req
module Fat_tree = Topology.Fat_tree

type tg_info = {
  ti_job : int;
  ti_comp : string;
  is_network : bool;
  expected : int;
  arrival : float;
  mutable placed : int;
  mutable cancelled : bool;
  mutable satisfied_at : float option;
  mutable ever_satisfied : bool;
      (* the group reached full placement at least once — even a group
         requeued before its first satisfaction still feeds the
         placement-latency histogram exactly once *)
  mutable requeued_at : float option;
      (* last fault-driven requeue still awaiting re-placement *)
}

type job_info = {
  mutable servers_used : int list;
  mutable switches_used : int list;
  has_inc : bool;
  network_tg_ids : int list;
}

type t = {
  topo : Fat_tree.t;
  tgs : (int, tg_info) Hashtbl.t;
  jobs : (int, job_info) Hashtbl.t;
  latency_h : Obs.Histogram.t;
  solver_h : Obs.Histogram.t;
  reschedule_h : Obs.Histogram.t;
  downtime_h : Obs.Histogram.t;
  mutable sw_used : Vec.t;
  mutable sw_integral : Vec.t;
  mutable last_time : float;
  mutable finalized_at : float option;
  mutable rounds : int;
  mutable think_total : float;
  mutable node_fails : int;
  mutable node_recoveries : int;
  mutable tasks_killed : int;
  mutable requeues : int;
  mutable fault_cancels : int;
  mutable degraded_rounds : int;
  mutable fallback_rounds : int;
  mutable fallback_depth_max : int;
  mutable guard_trips : int;
  mutable salvaged_tasks : int;
}

let create topo =
  let dims = Topology.Resource.Switch.count in
  {
    topo;
    tgs = Hashtbl.create 1024;
    jobs = Hashtbl.create 256;
    latency_h = Obs.Histogram.create ();
    solver_h = Obs.Histogram.create ();
    reschedule_h = Obs.Histogram.create ();
    downtime_h = Obs.Histogram.create ();
    sw_used = Vec.zero dims;
    sw_integral = Vec.zero dims;
    last_time = 0.0;
    finalized_at = None;
    rounds = 0;
    think_total = 0.0;
    node_fails = 0;
    node_recoveries = 0;
    tasks_killed = 0;
    requeues = 0;
    fault_cancels = 0;
    degraded_rounds = 0;
    fallback_rounds = 0;
    fallback_depth_max = 0;
    guard_trips = 0;
    salvaged_tasks = 0;
  }

let advance_load t time =
  let dt = time -. t.last_time in
  if dt > 0.0 then begin
    Vec.add_into t.sw_integral (Vec.scale dt t.sw_used);
    t.last_time <- time
  end

let on_submit t ~time (poly : Poly_req.t) =
  advance_load t time;
  List.iter
    (fun (tg : Poly_req.task_group) ->
      Hashtbl.replace t.tgs tg.tg_id
        {
          ti_job = poly.job_id;
          ti_comp = tg.comp_id;
          is_network = Poly_req.is_network tg;
          expected = tg.count;
          arrival = time;
          placed = 0;
          cancelled = false;
          satisfied_at = None;
          ever_satisfied = false;
          requeued_at = None;
        })
    poly.task_groups;
  Hashtbl.replace t.jobs poly.job_id
    {
      servers_used = [];
      switches_used = [];
      has_inc = Poly_req.has_inc poly;
      network_tg_ids = List.map (fun tg -> tg.Poly_req.tg_id) (Poly_req.network_groups poly);
    }

let on_place t ~time ~(tg : Poly_req.task_group) ~machine ~charged =
  advance_load t time;
  (match charged with Some v -> Vec.add_into t.sw_used v | None -> ());
  (match Hashtbl.find_opt t.tgs tg.tg_id with
  | None -> ()
  | Some ti ->
      ti.placed <- ti.placed + 1;
      ti.cancelled <- false;
      if ti.placed >= ti.expected && ti.satisfied_at = None then begin
        ti.satisfied_at <- Some time;
        (* First-ever satisfaction always feeds the paper's
           placement-latency figure (even when a fault requeued the
           group before it was ever fully placed — dropping those would
           bias the figure by exactly the slow cases); a re-placement
           after a fault additionally feeds the time-to-reschedule
           histogram. *)
        if not ti.ever_satisfied then begin
          ti.ever_satisfied <- true;
          Obs.Histogram.observe t.latency_h (time -. ti.arrival)
        end;
        match ti.requeued_at with
        | Some t0 ->
            ti.requeued_at <- None;
            Obs.Histogram.observe t.reschedule_h (time -. t0)
        | None -> ()
      end);
  match Hashtbl.find_opt t.jobs tg.job_id with
  | None -> ()
  | Some ji ->
      if Fat_tree.is_server t.topo machine then ji.servers_used <- machine :: ji.servers_used
      else ji.switches_used <- machine :: ji.switches_used

let on_task_complete t ~time ~tg:_ ~released =
  advance_load t time;
  match released with
  | Some v ->
      t.sw_used <- Vec.clamp_nonneg (Vec.sub t.sw_used v)
  | None -> ()

let on_cancel t ~time ~(tg : Poly_req.task_group) =
  advance_load t time;
  match Hashtbl.find_opt t.tgs tg.tg_id with
  | None -> ()
  | Some ti -> if ti.satisfied_at = None then ti.cancelled <- true

(* -------------------- fault injection -------------------- *)

let on_task_kill t ~time ~tg:_ ~released =
  advance_load t time;
  t.tasks_killed <- t.tasks_killed + 1;
  match released with
  | Some v -> t.sw_used <- Vec.clamp_nonneg (Vec.sub t.sw_used v)
  | None -> ()

let on_requeue t ~time ~(tg : Poly_req.task_group) ~n =
  advance_load t time;
  t.requeues <- t.requeues + n;
  match Hashtbl.find_opt t.tgs tg.tg_id with
  | None -> ()
  | Some ti ->
      ti.placed <- max 0 (ti.placed - n);
      (* The group is no longer (fully) running; it counts as satisfied
         again only once the lost tasks are re-placed. *)
      ti.satisfied_at <- None;
      ti.cancelled <- false;
      ti.requeued_at <- Some time

let on_fault_cancel t ~time ~(tg : Poly_req.task_group) ~n =
  advance_load t time;
  t.fault_cancels <- t.fault_cancels + n;
  match Hashtbl.find_opt t.tgs tg.tg_id with
  | None -> ()
  | Some ti ->
      ti.placed <- max 0 (ti.placed - n);
      ti.satisfied_at <- None;
      ti.requeued_at <- None;
      ti.cancelled <- true

let on_node_fail t ~time =
  advance_load t time;
  t.node_fails <- t.node_fails + 1

let on_node_recover t ~time ~downtime_s =
  advance_load t time;
  t.node_recoveries <- t.node_recoveries + 1;
  Obs.Histogram.observe t.downtime_h downtime_s

let on_solver_sample t ~wall_s = Obs.Histogram.observe t.solver_h wall_s

let on_round ?resilience t ~think_s =
  t.rounds <- t.rounds + 1;
  t.think_total <- t.think_total +. think_s;
  match (resilience : Scheduler_intf.round_resilience option) with
  | None -> ()
  | Some r ->
      if r.degraded then t.degraded_rounds <- t.degraded_rounds + 1;
      if r.fallback_depth > 0 then t.fallback_rounds <- t.fallback_rounds + 1;
      t.fallback_depth_max <- max t.fallback_depth_max r.fallback_depth;
      t.guard_trips <- t.guard_trips + r.guard_trips;
      t.salvaged_tasks <- t.salvaged_tasks + r.salvaged

let finalize t ~time =
  advance_load t time;
  t.finalized_at <- Some time

type report = {
  jobs_total : int;
  inc_jobs_total : int;
  inc_jobs_served : int;
  inc_tgs_total : int;
  inc_tgs_unserved : int;
  tgs_total : int;
  tgs_satisfied : int;
  detour_mean : float;
  span_mean : float;  (** topology levels covering servers+switches of a job *)
  detour_samples : int;
  switch_load : Vec.t;
  placement_latency : Obs.Histogram.t;
  solver_wall : Obs.Histogram.t;
  rounds : int;
  think_total : float;
  node_fails : int;
  node_recoveries : int;
  tasks_killed : int;
  requeues : int;
  fault_cancels : int;
  tgs_cancelled : int;
  time_to_reschedule : Obs.Histogram.t;
  node_downtime : Obs.Histogram.t;
  degraded_rounds : int;
  fallback_rounds : int;
  fallback_depth_max : int;
  guard_trips : int;
  salvaged_tasks : int;
}

(* Bindings of an int-keyed table in key order: [report] and [snapshot]
   must not depend on hash-bucket iteration order, which a
   checkpoint-restored table does not reproduce (docs/JOURNAL.md). *)
let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let report t =
  let jobs_total = Hashtbl.length t.jobs in
  let inc_jobs_total = ref 0 and inc_jobs_served = ref 0 in
  let detour_sum = ref 0.0 and detour_n = ref 0 in
  let span_sum = ref 0.0 in
  List.iter
    (fun (_, ji) ->
      if ji.has_inc then begin
        incr inc_jobs_total;
        (* Served with INC iff at least one network group ran fully and
           no chosen network group is left half-done. *)
        let satisfied, pending =
          List.fold_left
            (fun (sat, pend) tg_id ->
              match Hashtbl.find_opt t.tgs tg_id with
              | None -> (sat, pend)
              | Some ti ->
                  if ti.satisfied_at <> None then (sat + 1, pend)
                  else if ti.cancelled then (sat, pend)
                  else (sat, pend + 1))
            (0, 0) ji.network_tg_ids
        in
        if satisfied > 0 && pending = 0 then incr inc_jobs_served
      end;
      (* Detours are defined over jobs whose placement involves switches:
         extra levels needed to cover servers and switches together. *)
      if ji.servers_used <> [] && ji.switches_used <> [] then begin
        let servers = List.sort_uniq compare ji.servers_used in
        let switches = List.sort_uniq compare ji.switches_used in
        let d = Fat_tree.detour t.topo ~servers ~switches in
        detour_sum := !detour_sum +. float_of_int d;
        (* Fabric span: hierarchy levels needed to cover the whole job,
           a companion metric — schedulers that scatter servers across
           the fabric show zero *detour* simply because their jobs
           already span everything. *)
        span_sum := !span_sum +. float_of_int (3 - Fat_tree.cover_depth t.topo (servers @ switches));
        incr detour_n
      end)
    (sorted_bindings t.jobs);
  let inc_tgs_total = ref 0 and inc_tgs_unserved = ref 0 in
  let tgs_total = ref 0 and tgs_satisfied = ref 0 and tgs_cancelled = ref 0 in
  (* Composites with several INC alternatives run exactly one of them: a
     network group cancelled in favour of a *sibling* INC group is
     alternative-replaced, not unserved. *)
  let comp_inc_served = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ ti ->
      if ti.is_network && ti.satisfied_at <> None then
        Hashtbl.replace comp_inc_served (ti.ti_job, ti.ti_comp) ())
    t.tgs;
  List.iter
    (fun (_, ti) ->
      incr tgs_total;
      if ti.satisfied_at <> None then incr tgs_satisfied;
      if ti.cancelled then incr tgs_cancelled;
      if ti.is_network then begin
        let sibling_served = Hashtbl.mem comp_inc_served (ti.ti_job, ti.ti_comp) in
        if ti.satisfied_at <> None then incr inc_tgs_total
        else if not sibling_served then begin
          incr inc_tgs_total;
          incr inc_tgs_unserved
        end
      end)
    (sorted_bindings t.tgs);
  let total_time = Float.max 1e-9 t.last_time in
  let cap =
    Vec.scale
      (float_of_int (Array.length (Fat_tree.switches t.topo)))
      Topology.Resource.Switch.default_capacity
  in
  let switch_load =
    Array.mapi
      (fun i x -> if cap.(i) <= 0.0 then 0.0 else x /. (cap.(i) *. total_time))
      t.sw_integral
  in
  {
    jobs_total;
    inc_jobs_total = !inc_jobs_total;
    inc_jobs_served = !inc_jobs_served;
    inc_tgs_total = !inc_tgs_total;
    inc_tgs_unserved = !inc_tgs_unserved;
    tgs_total = !tgs_total;
    tgs_satisfied = !tgs_satisfied;
    detour_mean = (if !detour_n = 0 then 0.0 else !detour_sum /. float_of_int !detour_n);
    span_mean = (if !detour_n = 0 then 0.0 else !span_sum /. float_of_int !detour_n);
    detour_samples = !detour_n;
    switch_load;
    placement_latency = t.latency_h;
    solver_wall = t.solver_h;
    rounds = t.rounds;
    think_total = t.think_total;
    node_fails = t.node_fails;
    node_recoveries = t.node_recoveries;
    tasks_killed = t.tasks_killed;
    requeues = t.requeues;
    fault_cancels = t.fault_cancels;
    tgs_cancelled = !tgs_cancelled;
    time_to_reschedule = t.reschedule_h;
    node_downtime = t.downtime_h;
    degraded_rounds = t.degraded_rounds;
    fallback_rounds = t.fallback_rounds;
    fallback_depth_max = t.fallback_depth_max;
    guard_trips = t.guard_trips;
    salvaged_tasks = t.salvaged_tasks;
  }

(* ------------------------------------------------------------------ *)
(* Snapshot / restore (journal checkpoints, docs/JOURNAL.md)           *)
(* ------------------------------------------------------------------ *)

module Enc = Prelude.Codec.Enc
module Dec = Prelude.Codec.Dec

let enc_hist e h =
  let r = Obs.Histogram.to_raw h in
  Enc.f64 e r.Obs.Histogram.r_lo;
  Enc.f64 e r.r_log_gamma;
  Enc.array e Enc.uint r.r_counts;
  Enc.uint e r.r_underflow;
  Enc.uint e r.r_overflow;
  Enc.uint e r.r_count;
  Enc.f64 e r.r_sum;
  Enc.f64 e r.r_vmin;
  Enc.f64 e r.r_vmax

(* Histograms live in immutable fields, so restore rebuilds the decoded
   one and folds it into the cleared live instance — [merge_into] on an
   empty histogram is an exact copy. *)
let dec_hist_into d h =
  let r_lo = Dec.f64 d in
  let r_log_gamma = Dec.f64 d in
  let r_counts = Dec.array d Dec.uint in
  let r_underflow = Dec.uint d in
  let r_overflow = Dec.uint d in
  let r_count = Dec.uint d in
  let r_sum = Dec.f64 d in
  let r_vmin = Dec.f64 d in
  let r_vmax = Dec.f64 d in
  let decoded =
    Obs.Histogram.of_raw
      {
        Obs.Histogram.r_lo;
        r_log_gamma;
        r_counts;
        r_underflow;
        r_overflow;
        r_count;
        r_sum;
        r_vmin;
        r_vmax;
      }
  in
  Obs.Histogram.clear h;
  try Obs.Histogram.merge_into h decoded
  with Invalid_argument msg -> raise (Prelude.Codec.Error ("Metrics.restore: " ^ msg))

let snapshot t =
  let e = Enc.create () in
  Enc.list e
    (fun e (id, ti) ->
      Enc.int e id;
      Enc.int e ti.ti_job;
      Enc.string e ti.ti_comp;
      Enc.bool e ti.is_network;
      Enc.uint e ti.expected;
      Enc.f64 e ti.arrival;
      Enc.uint e ti.placed;
      Enc.bool e ti.cancelled;
      Enc.option e Enc.f64 ti.satisfied_at;
      Enc.bool e ti.ever_satisfied;
      Enc.option e Enc.f64 ti.requeued_at)
    (sorted_bindings t.tgs);
  Enc.list e
    (fun e (id, ji) ->
      Enc.int e id;
      Enc.list e Enc.int ji.servers_used;
      Enc.list e Enc.int ji.switches_used;
      Enc.bool e ji.has_inc;
      Enc.list e Enc.int ji.network_tg_ids)
    (sorted_bindings t.jobs);
  enc_hist e t.latency_h;
  enc_hist e t.solver_h;
  enc_hist e t.reschedule_h;
  enc_hist e t.downtime_h;
  Enc.float_array e t.sw_used;
  Enc.float_array e t.sw_integral;
  Enc.f64 e t.last_time;
  Enc.option e Enc.f64 t.finalized_at;
  Enc.uint e t.rounds;
  Enc.f64 e t.think_total;
  Enc.uint e t.node_fails;
  Enc.uint e t.node_recoveries;
  Enc.uint e t.tasks_killed;
  Enc.uint e t.requeues;
  Enc.uint e t.fault_cancels;
  Enc.uint e t.degraded_rounds;
  Enc.uint e t.fallback_rounds;
  Enc.uint e t.fallback_depth_max;
  Enc.uint e t.guard_trips;
  Enc.uint e t.salvaged_tasks;
  Enc.to_string e

let restore t blob =
  let d = Dec.of_string blob in
  Hashtbl.reset t.tgs;
  List.iter
    (fun (id, ti) -> Hashtbl.replace t.tgs id ti)
    (Dec.list d (fun d ->
         let id = Dec.int d in
         let ti_job = Dec.int d in
         let ti_comp = Dec.string d in
         let is_network = Dec.bool d in
         let expected = Dec.uint d in
         let arrival = Dec.f64 d in
         let placed = Dec.uint d in
         let cancelled = Dec.bool d in
         let satisfied_at = Dec.option d Dec.f64 in
         let ever_satisfied = Dec.bool d in
         let requeued_at = Dec.option d Dec.f64 in
         ( id,
           {
             ti_job;
             ti_comp;
             is_network;
             expected;
             arrival;
             placed;
             cancelled;
             satisfied_at;
             ever_satisfied;
             requeued_at;
           } )));
  Hashtbl.reset t.jobs;
  List.iter
    (fun (id, ji) -> Hashtbl.replace t.jobs id ji)
    (Dec.list d (fun d ->
         let id = Dec.int d in
         let servers_used = Dec.list d Dec.int in
         let switches_used = Dec.list d Dec.int in
         let has_inc = Dec.bool d in
         let network_tg_ids = Dec.list d Dec.int in
         (id, { servers_used; switches_used; has_inc; network_tg_ids })));
  dec_hist_into d t.latency_h;
  dec_hist_into d t.solver_h;
  dec_hist_into d t.reschedule_h;
  dec_hist_into d t.downtime_h;
  t.sw_used <- Dec.float_array d;
  t.sw_integral <- Dec.float_array d;
  t.last_time <- Dec.f64 d;
  t.finalized_at <- Dec.option d Dec.f64;
  t.rounds <- Dec.uint d;
  t.think_total <- Dec.f64 d;
  t.node_fails <- Dec.uint d;
  t.node_recoveries <- Dec.uint d;
  t.tasks_killed <- Dec.uint d;
  t.requeues <- Dec.uint d;
  t.fault_cancels <- Dec.uint d;
  t.degraded_rounds <- Dec.uint d;
  t.fallback_rounds <- Dec.uint d;
  t.fallback_depth_max <- Dec.uint d;
  t.guard_trips <- Dec.uint d;
  t.salvaged_tasks <- Dec.uint d;
  if not (Dec.at_end d) then
    raise (Prelude.Codec.Error "Metrics.restore: trailing bytes in snapshot")

let inc_satisfaction_ratio r =
  if r.inc_jobs_total = 0 then 1.0
  else float_of_int r.inc_jobs_served /. float_of_int r.inc_jobs_total

let inc_tg_unserved_ratio r =
  if r.inc_tgs_total = 0 then 0.0
  else float_of_int r.inc_tgs_unserved /. float_of_int r.inc_tgs_total

let pp_report fmt r =
  Format.fprintf fmt
    "jobs=%d inc-jobs=%d/%d (%.1f%%) inc-tgs-unserved=%d/%d detour=%.3f load=%a rounds=%d"
    r.jobs_total r.inc_jobs_served r.inc_jobs_total
    (100.0 *. inc_satisfaction_ratio r)
    r.inc_tgs_unserved r.inc_tgs_total r.detour_mean Vec.pp r.switch_load r.rounds;
  (* Fault-free reports stay byte-identical to the pre-fault format. *)
  if r.node_fails > 0 then
    Format.fprintf fmt " faults=%d/%d killed=%d requeued=%d cancelled=%d" r.node_fails
      r.node_recoveries r.tasks_killed r.requeues r.fault_cancels;
  (* Likewise, runs that never degraded, fell back or tripped the guard
     keep the format without resilience fields. *)
  if
    r.degraded_rounds > 0 || r.fallback_rounds > 0 || r.guard_trips > 0
    || r.salvaged_tasks > 0
  then
    Format.fprintf fmt
      " resilience: degraded-rounds=%d fallback-rounds=%d max-depth=%d guard-trips=%d salvaged=%d"
      r.degraded_rounds r.fallback_rounds r.fallback_depth_max r.guard_trips
      r.salvaged_tasks
