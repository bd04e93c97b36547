module Clock = Prelude.Clock
module Int_tbl = Prelude.Int_tbl

type resilience = {
  budget : Flow.Budget.t option;
  guard_every : int;
}

let resilience ?budget ?(guard_every = 0) () = { budget; guard_every }

type config = {
  params : Cost_model.params;
  simple_flavor : bool;
  solver : Flow_network.solver;
  resilience : resilience;
  incremental : bool;
}

let default_config =
  {
    params = Cost_model.default_params;
    simple_flavor = false;
    solver = Flow_network.Ssp;
    resilience = resilience ();
    incremental = true;
  }

type t = {
  view : View.t;
  config : config;
  jobs : Pending.job_state Int_tbl.t;
  census : Locality.Task_census.t;
  mutable order : int list;  (* job ids, newest first; kept for determinism *)
  mutable solves : int;  (* lifetime solve attempts, drives guard sampling *)
  builder : Flow_network.builder option;  (* persistent network arena *)
  scratch : Flow.Mcmf.scratch option;  (* persistent SSP workspace *)
}

let create ?(config = default_config) view =
  {
    view;
    config;
    jobs = Int_tbl.create 64;
    census = Locality.Task_census.create view.View.topo;
    order = [];
    solves = 0;
    builder = (if config.incremental then Some (Flow_network.create_builder ()) else None);
    scratch = (if config.incremental then Some (Flow.Mcmf.scratch ()) else None);
  }

let name t = if t.config.simple_flavor then "hire-simple" else "hire"

let submit t ~time:_ poly =
  let job = Pending.of_poly poly in
  Int_tbl.replace t.jobs poly.Poly_req.job_id job;
  t.order <- poly.Poly_req.job_id :: t.order

let job_list t =
  (* Oldest first. *)
  List.rev t.order |> List.filter_map (Int_tbl.find_opt t.jobs)

let pending_work t =
  Int_tbl.fold (fun _ job acc -> acc || Pending.has_pending_work job) t.jobs false

let pending_jobs t = Int_tbl.length t.jobs

type round_resilience = {
  degraded : bool;
  fallback_depth : int;
  guard_trips : int;
  salvaged : int;
}

type round_outcome = {
  placements : (Poly_req.task_group * int) list;
  cancelled : Poly_req.task_group list;
  fallbacks : int;
  flavor_decisions : (int * bool) list;
  solver : Flow.Mcmf.result option;
  graph_nodes : int;
  graph_arcs : int;
  resilience : round_resilience;
}

(* In simple-flavor mode a single decision fixes the whole job: every
   remaining undecided composite is resolved to the same kind (INC or
   server) as the first pick.  Returns additionally dropped groups. *)
let propagate_simple job picked_is_inc =
  let rec go acc =
    let next =
      Pending.undecided job
      |> List.find_opt (fun (ts : Pending.tg_state) ->
             Flavor.compatible job.Pending.x_hat ts.tg.Poly_req.flavor
             && Poly_req.is_network ts.tg = picked_is_inc)
    in
    match next with
    | Some ts -> go (acc @ Pending.decide job ts)
    | None ->
        (* Composites without a matching-kind variant fall back to their
           server variant. *)
        let fallback =
          Pending.undecided job
          |> List.find_opt (fun (ts : Pending.tg_state) ->
                 Flavor.compatible job.Pending.x_hat ts.tg.Poly_req.flavor
                 && not (Poly_req.is_network ts.tg))
        in
        (match fallback with Some ts -> go (acc @ Pending.decide job ts) | None -> acc)
  in
  go []

let cleanup t =
  let finished =
    Int_tbl.fold
      (fun id job acc -> if Pending.has_pending_work job then acc else id :: acc)
      t.jobs []
  in
  List.iter (Int_tbl.remove t.jobs) finished;
  if finished <> [] then
    t.order <- List.filter (fun id -> Int_tbl.mem t.jobs id) t.order

(* True while every undecided network group of the job could in
   principle be hosted: for each group there are enough supporting
   switches whose *full* capacity covers the demand.  Transient
   congestion does not count — the alternatives stay open and the flow
   network keeps arbitrating; only capability-infeasible INC requests
   (wrong switch features, demand exceeding any switch) are preempted to
   the server fallback. *)
let inc_still_feasible t (job : Pending.job_state) =
  let sharing = t.view.View.sharing in
  let topo = t.view.View.topo in
  Pending.undecided job
  |> List.for_all (fun (ts : Pending.tg_state) ->
         match ts.tg.Poly_req.kind with
         | Poly_req.Server_tg -> true
         | Poly_req.Network_tg n ->
             let demand = Prelude.Vec.add n.Poly_req.per_switch ts.tg.Poly_req.demand in
             let single_tor =
               match n.Poly_req.shape with Comp_store.Single_tor -> true | _ -> false
             in
             (* A group of [remaining] slots needs that many distinct
                switches beyond the ones it already occupies. *)
             let eligible = ref 0 in
             if Prelude.Vec.fits ~demand ~available:(Sharing.live_capacity sharing) then
               Sharing.iter_supporting sharing ~service:n.Poly_req.service
                 (fun s ~avail:_ ~capacity:_ ~active:_ ~n_active:_ ~n_supported:_ ->
                   if
                     ((not single_tor)
                     || Topology.Fat_tree.kind topo s = Topology.Fat_tree.Tor)
                     && not (List.exists (Int.equal s) ts.placed_on)
                   then incr eligible);
             !eligible >= ts.remaining)

(* Pushes the groups of [dropped] onto [acc], a newest-first list. *)
let push_dropped acc dropped = List.fold_left (fun acc ts -> ts.Pending.tg :: acc) acc dropped

(* Apply the round's flavor picks so the picked groups materialize;
   records decisions and pushes dropped groups onto [cancelled]. *)
let apply_flavor_picks t ~flavor_picks ~cancelled ~decisions =
  List.iter
    (fun (job_id, tg_id) ->
      match Int_tbl.find_opt t.jobs job_id with
      | None -> ()
      | Some job -> (
          match Pending.find_tg job tg_id with
          | None -> ()
          | Some ts ->
              if Pending.status job ts = Flavor.Undecided then begin
                decisions := (job_id, Poly_req.is_network ts.tg) :: !decisions;
                if Obs.enabled () then
                  Obs.Trace.emit "flavor_decision"
                    [
                      ("job", Obs.Trace.Int job_id);
                      ("inc", Obs.Trace.Bool (Poly_req.is_network ts.tg));
                    ];
                let dropped = Pending.decide job ts in
                cancelled := push_dropped !cancelled dropped;
                if t.config.simple_flavor then begin
                  let dropped' = propagate_simple job (Poly_req.is_network ts.tg) in
                  cancelled := push_dropped !cancelled dropped'
                end
              end))
    flavor_picks

(* The groups the raw placements name, by tg id: every job's group
   with that id ([Pending.find_tg]'s, the first in the job), oldest job
   first.  Requeue clones share the original's tg_id under a different
   job id, so one id may list several jobs; the order is submission
   order, not hash-table order, which replayed restores would not
   reproduce (docs/JOURNAL.md).  Placing changes neither [t.order] nor
   [t.jobs], so one index serves a whole call. *)
let tg_index t raw =
  let idx = Int_tbl.create 16 in
  List.iter (fun (tg_id, _) -> Int_tbl.replace idx tg_id []) raw;
  (* [t.order] is newest first, so prepending leaves each list oldest
     first. *)
  List.iter
    (fun id ->
      match Int_tbl.find_opt t.jobs id with
      | None -> ()
      | Some job ->
          Array.iter
            (fun (ts : Pending.tg_state) ->
              let tg_id = ts.tg.Poly_req.tg_id in
              match Int_tbl.find_opt idx tg_id with
              | Some ((j, _) :: _) when j == job -> ()
              | Some l -> Int_tbl.replace idx tg_id ((job, ts) :: l)
              | None -> ())
            job.Pending.tg_states)
    t.order;
  idx

(* Record raw (tg_id, machine) placements against pending state and the
   locality census; returns the applied (task_group, machine) pairs.
   Each resolves to the oldest job whose group is materialized and has
   work left. *)
let apply_placements t raw =
  let idx = tg_index t raw in
  List.filter_map
    (fun (tg_id, machine) ->
      match
        List.find_opt
          (fun (job, (ts : Pending.tg_state)) ->
            Pending.status job ts = Flavor.Materialized && ts.remaining > 0)
          (Int_tbl.find idx tg_id)
      with
      | None -> None
      | Some (job, ts) ->
          Pending.place job ts ~machine;
          Locality.Task_census.add t.census ~tg_id ~machine;
          Some (ts.Pending.tg, machine))
    raw

(* Lenient resolution of raw placements for the guard's ledger
   cross-check: flavor picks have not been applied yet at guard time, so
   group status is ignored — only groups with work left resolve.  Same
   oldest-job-first order as [apply_placements]. *)
let resolve_for_guard t raw =
  let idx = tg_index t raw in
  List.filter_map
    (fun (tg_id, machine) ->
      List.find_map
        (fun (_, (ts : Pending.tg_state)) ->
          if ts.remaining > 0 then Some (ts, machine) else None)
        (Int_tbl.find idx tg_id))
    raw

let other_backend = function
  | Flow_network.Ssp -> Flow_network.Cost_scaling
  | Flow_network.Cost_scaling -> Flow_network.Ssp

(* Build the round's network through the persistent builder (when
   incremental mode is on) and publish the build time and the patch
   statistics. *)
let build_network t ~jobs ~time ~params =
  let build_t0 = if Obs.enabled () then Clock.now () else 0.0 in
  let net = Flow_network.build ?builder:t.builder t.view t.census ~jobs ~now:time ~params in
  if Obs.enabled () then begin
    let build_s = Clock.now () -. build_t0 in
    let nodes, arcs = Flow_network.size net in
    Obs.Trace.emit "network_built"
      [
        ("nodes", Obs.Trace.Int nodes);
        ("arcs", Obs.Trace.Int arcs);
        ("build_s", Obs.Trace.Float build_s);
      ];
    Obs.Histogram.observe (Obs.Registry.histogram "hire.build_s") build_s;
    let st = Flow_network.stats net in
    Obs.Registry.incr
      (Obs.Registry.counter
         (if st.Flow_network.full then "hire.net.full_rebuilds" else "hire.net.patched_builds"));
    Obs.Histogram.observe
      (Obs.Registry.histogram "hire.net.touched_arcs")
      (float_of_int st.Flow_network.touched_arcs);
    Obs.Histogram.observe
      (Obs.Registry.histogram "hire.net.total_arcs")
      (float_of_int st.Flow_network.total_arcs)
  end;
  net

(* One rung of the fallback chain: rebuild the round's network (a
   previous cost-scaling attempt leaves its virtual feasibility node
   behind, so a solved network is never reused across attempts — the
   persistent builder rewinds it instead of reallocating), solve under
   the budget, optionally corrupt (the flow.corrupt failpoint) and
   guard the live solution.
   [`Accept] carries the extracted outcome; [`Reject] advances the
   chain. *)
let attempt_backend t ~jobs ~time ~params ~backend ~trips =
  let r = t.config.resilience in
  let net = build_network t ~jobs ~time ~params in
  let size = Flow_network.size net in
  t.solves <- t.solves + 1;
  let solver =
    Flow_network.solve_only ~solver:backend ?budget:r.budget ?scratch:t.scratch net
  in
  if solver.Flow.Mcmf.degraded && solver.Flow.Mcmf.shipped = 0 then begin
    (* Nothing salvageable (cost-scaling aborts to the zero flow; SSP
       ran out before the first augmentation): fall through. *)
    if Obs.enabled () then
      Obs.Registry.incr (Obs.Registry.counter "hire.resilience.budget_exhausted");
    `Reject (solver, size)
  end
  else begin
    let guard_due = r.guard_every > 0 && t.solves mod r.guard_every = 0 in
    if not guard_due then `Accept (Flow_network.extract net ~solver, solver, size)
    else begin
      if Obs.enabled () then
        Obs.Registry.incr (Obs.Registry.counter "hire.resilience.guard_checks");
      (* The flow.corrupt failpoint sits between the solver and the
         guard: a seeded bit-flip on the live flow that the guard must
         catch. *)
      ignore (Flow.Verify.inject_corruption (Flow_network.graph net));
      let verdict =
        match Guard.check_flow (Flow_network.graph net) with
        | Error v -> Error v
        | Ok () ->
            (* Only a flow-valid graph is decomposed: extraction walks
               the flow, which a corrupted graph could send astray. *)
            let outcome = Flow_network.extract net ~solver in
            let resolved = resolve_for_guard t outcome.Flow_network.placements in
            Result.map (fun () -> outcome)
              (Guard.check_placements t.view ~params ~placements:resolved)
      in
      match verdict with
      | Ok outcome -> `Accept (outcome, solver, size)
      | Error v ->
          incr trips;
          let msg = Format.asprintf "%a" Guard.pp_violation v in
          Printf.eprintf
            "hire: invariant guard trip on %s (solve #%d): %s — quarantining solution\n%!"
            (Flow_network.solver_name backend)
            t.solves msg;
          if Obs.enabled () then begin
            Obs.Registry.incr (Obs.Registry.counter "hire.resilience.guard_trips");
            Obs.Trace.emit "guard_trip"
              [
                ("solver", Obs.Trace.Str (Flow_network.solver_name backend));
                ("violation", Obs.Trace.Str msg);
              ]
          end;
          `Reject (solver, size)
    end
  end

(* Total tasks the greedy rung could in principle still place — the
   denominator of its salvage ratio. *)
let total_materialized_remaining jobs =
  List.fold_left
    (fun acc job ->
      List.fold_left
        (fun acc (ts : Pending.tg_state) -> acc + ts.Pending.remaining)
        acc (Pending.materialized job))
    0 jobs

let run_round t ~time =
  let round_t0 = if Obs.enabled () then Clock.now () else 0.0 in
  if Obs.enabled () then begin
    Obs.Trace.emit "round_start"
      [
        ("sched", Obs.Trace.Str (name t));
        ("time", Obs.Trace.Float time);
        ("pending_jobs", Obs.Trace.Int (pending_jobs t));
      ];
    Obs.Registry.incr (Obs.Registry.counter "hire.rounds")
  end;
  let params = t.config.params in
  let cancelled = ref [] (* newest first *) in
  let fallbacks = ref 0 in
  (* Flavor timeout (Φpref upper bound): preempt the flavor decision "in
     case of congested resources" — jobs whose INC parts have become
     unsatisfiable fall back to the server variant after waiting out the
     upper bound. *)
  List.iter
    (fun (job : Pending.job_state) ->
      if
        (not job.inc_flavor_locked)
        && Pending.flavor_open job
        && time -. job.poly.Poly_req.arrival >= params.pref_upper
        && not (inc_still_feasible t job)
      then begin
        let dropped = Pending.force_server_fallback job in
        incr fallbacks;
        cancelled := push_dropped !cancelled dropped
      end)
    (job_list t);
  let emit_round_end (o : round_outcome) =
    if Obs.enabled () then begin
      let round_s = Clock.now () -. round_t0 in
      Obs.Trace.emit "round_end"
        [
          ("placements", Obs.Trace.Int (List.length o.placements));
          ("cancelled", Obs.Trace.Int (List.length o.cancelled));
          ("fallbacks", Obs.Trace.Int o.fallbacks);
          ("flavor_decisions", Obs.Trace.Int (List.length o.flavor_decisions));
          ("round_s", Obs.Trace.Float round_s);
        ];
      Obs.Registry.incr ~by:(List.length o.placements) (Obs.Registry.counter "hire.placements");
      Obs.Registry.incr ~by:(List.length o.cancelled) (Obs.Registry.counter "hire.cancelled");
      Obs.Registry.incr ~by:o.fallbacks (Obs.Registry.counter "hire.fallbacks");
      Obs.Registry.incr
        ~by:(List.length o.flavor_decisions)
        (Obs.Registry.counter "hire.flavor_decisions");
      Obs.Histogram.observe (Obs.Registry.histogram "hire.round_s") round_s
    end;
    o
  in
  let jobs = job_list t in
  if not (List.exists Pending.has_pending_work jobs) then begin
    cleanup t;
    emit_round_end
      {
        placements = [];
        cancelled = List.rev !cancelled;
        fallbacks = !fallbacks;
        flavor_decisions = [];
        solver = None;
        graph_nodes = 0;
        graph_arcs = 0;
        resilience = { degraded = false; fallback_depth = 0; guard_trips = 0; salvaged = 0 };
      }
  end
  else begin
    (* The fallback chain.  An unbounded solve is never degraded, so with
       no budget and no guard the first rung always accepts. *)
    let trips = ref 0 in
    let backends = [ t.config.solver; other_backend t.config.solver ] in
    let rec chain depth last = function
      | [] -> (`Greedy last, depth)
      | backend :: rest -> (
          match attempt_backend t ~jobs ~time ~params ~backend ~trips with
          | `Accept (outcome, solver, size) -> (`Flow (outcome, solver, size), depth)
          | `Reject (solver, size) -> chain (depth + 1) (Some (solver, size)) rest)
    in
    let result, depth = chain 0 None backends in
    let flavor_picks, raw_placements, solver_res, (nodes, arcs), used_greedy =
      match result with
      | `Flow (outcome, solver, size) ->
          ( outcome.Flow_network.flavor_picks,
            outcome.Flow_network.placements,
            Some solver,
            size,
            false )
      | `Greedy last ->
          (* Terminal rung: every solver attempt was exhausted or
             quarantined.  [last] reports the final failed solve so
             callers still see its wall time and stats. *)
          let raw = Greedy.place t.view ~jobs ~params in
          let solver, size =
            match last with Some (s, sz) -> (Some s, sz) | None -> (None, (0, 0))
          in
          ([], raw, solver, size, true)
    in
    let greedy_pool = if used_greedy then total_materialized_remaining jobs else 0 in
    let decisions = ref [] in
    apply_flavor_picks t ~flavor_picks ~cancelled ~decisions;
    let placements = apply_placements t raw_placements in
    let degraded =
      used_greedy || match solver_res with Some s -> s.Flow.Mcmf.degraded | None -> false
    in
    let salvaged = if degraded then List.length placements else 0 in
    if Obs.enabled () && (degraded || depth > 0) then begin
      if degraded then
        Obs.Registry.incr (Obs.Registry.counter "hire.resilience.degraded_rounds");
      if depth > 0 then
        Obs.Registry.incr (Obs.Registry.counter "hire.resilience.fallback_rounds");
      if used_greedy then
        Obs.Registry.incr (Obs.Registry.counter "hire.resilience.greedy_rounds");
      Obs.Histogram.observe
        (Obs.Registry.histogram "hire.resilience.fallback_depth")
        (float_of_int depth);
      if degraded then begin
        let ratio =
          if used_greedy then
            float_of_int (List.length placements) /. float_of_int (max 1 greedy_pool)
          else
            match solver_res with
            | Some s ->
                let total = s.Flow.Mcmf.shipped + s.Flow.Mcmf.unshipped in
                float_of_int s.Flow.Mcmf.shipped /. float_of_int (max 1 total)
            | None -> 0.0
        in
        Obs.Histogram.observe (Obs.Registry.histogram "hire.resilience.salvage_ratio") ratio
      end
    end;
    cleanup t;
    emit_round_end
      {
        placements;
        cancelled = List.rev !cancelled;
        fallbacks = !fallbacks;
        flavor_decisions = List.rev !decisions;
        solver = solver_res;
        graph_nodes = nodes;
        graph_arcs = arcs;
        resilience = { degraded; fallback_depth = depth; guard_trips = !trips; salvaged };
      }
  end

(* ------------------------------------------------------------------ *)
(* Snapshot / restore (journal checkpoints, docs/JOURNAL.md)           *)
(* ------------------------------------------------------------------ *)

(* The scheduling state proper is the pending queue (in submission
   order), the lifetime solve counter (it phases the guard sampling) and
   the locality census.  The flow-network builder (with its memo of
   locality contexts) and the solver scratch are caches: a restored
   scheduler starts them empty and the first round rebuilds from
   scratch, which is bit-identical to the incremental path.  Restoring
   into a live scheduler instead moves the census stamps of every
   decoded group, so its builder recomputes those contexts.  The census
   is serialized rather than re-derived because it mirrors tasks
   *running* in the cluster, which the pending queue no longer knows
   about. *)
let snapshot t =
  let module Enc = Prelude.Codec.Enc in
  let e = Enc.create () in
  Enc.list e Persist.enc_job (job_list t);
  Enc.uint e t.solves;
  Locality.Task_census.encode_state t.census e;
  Enc.to_string e

let restore t blob =
  let module Dec = Prelude.Codec.Dec in
  let d = Dec.of_string blob in
  let jobs = Dec.list d Persist.dec_job in
  Int_tbl.reset t.jobs;
  t.order <- [];
  List.iter
    (fun (job : Pending.job_state) ->
      let id = job.Pending.poly.Poly_req.job_id in
      Int_tbl.replace t.jobs id job;
      t.order <- id :: t.order)
    jobs;
  t.solves <- Dec.uint d;
  Locality.Task_census.decode_state t.census d;
  if not (Dec.at_end d) then
    raise (Prelude.Codec.Error "Hire_scheduler.restore: trailing bytes in snapshot")

let on_task_complete t ~tg_id ~machine =
  Locality.Task_census.remove t.census ~tg_id ~machine

let drop_task_group t ~tg_id =
  (* Requeue clones share the original's tg_id under a different job id,
     so every tracked job is scanned. *)
  Int_tbl.iter
    (fun _ job ->
      match Pending.find_tg job tg_id with
      | Some ts -> ts.Pending.remaining <- 0
      | None -> ())
    t.jobs

let census t = t.census
