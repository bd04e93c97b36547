module Poly_req = Hire.Poly_req
module Flavor = Hire.Flavor
module Pending = Hire.Pending
module Flow_network = Hire.Flow_network

let params =
  {
    Hire.Cost_model.default_params with
    locality_aware = false;
    sharing_aware = false;
    max_flavor_decisions = 0;
  }

(* Fabricate a fully-materialized Pending job from the currently active
   variant of a mode-managed job; [key] is the flavor key of a stripped
   group. *)
let pending_of_active ~key (job : Modes.mjob) rts =
  let strip (rt : Modes.tg_rt) = { rt.tg with Poly_req.flavor = Flavor.all_x 0 } in
  let tg_states =
    List.map
      (fun (rt : Modes.tg_rt) ->
        {
          Pending.tg = strip rt;
          remaining = rt.remaining;
          placed_on = rt.placed_on;
          flavor_key = key;
        })
      rts
  in
  {
    Pending.poly =
      { job.poly with Poly_req.task_groups = List.map strip rts; flavor_len = 0 };
    x_hat = Flavor.all_x 0;
    tg_states = Array.of_list tg_states;
    inc_flavor_locked = true;
  }

let create cluster =
  let c_rounds = Obs.Registry.counter "sched.coco-timeout.rounds" in
  let c_retry = Obs.Registry.counter "sched.coco-timeout.retry_tgs" in
  let g_depth = Obs.Registry.gauge "sched.coco-timeout.queue_depth" in
  let modes = Modes.create Modes.Timeout in
  let view = Sim.Cluster.view cluster in
  (* CoCo++ has no locality bookkeeping: the census stays empty. *)
  let census = Hire.Locality.Task_census.create (Sim.Cluster.topo cluster) in
  let key = Flavor.to_string (Flavor.all_x 0) in
  let submit ~time poly = Modes.submit modes ~time poly in
  let round ~time =
    let cancelled = ref (Modes.tick modes ~time) in
    let rt_of_tg = Hashtbl.create 64 in
    let pjobs =
      List.filter_map
        (fun job ->
          match Modes.active_tgs modes job with
          | [] -> None
          | rts ->
              List.iter
                (fun (rt : Modes.tg_rt) ->
                  Hashtbl.replace rt_of_tg rt.tg.Poly_req.tg_id (job, rt))
                rts;
              Some (pending_of_active ~key job rts))
        (Modes.jobs modes)
    in
    if Obs.enabled () then begin
      Obs.Registry.incr c_rounds;
      Obs.Registry.set g_depth (float_of_int (List.length pjobs))
    end;
    if pjobs = [] then begin
      Modes.cleanup modes;
      {
        Sim.Scheduler_intf.placements = [];
        cancelled = !cancelled;
        think = Sim.Scheduler_intf.idle_think;
        solver_wall = None;
        resilience = None;
      }
    end
    else begin
      let net = Flow_network.build view census ~jobs:pjobs ~now:time ~params in
      let nodes, arcs = Flow_network.size net in
      let outcome = Flow_network.solve_and_extract net in
      let placements =
        List.filter_map
          (fun (tg_id, machine) ->
            match Hashtbl.find_opt rt_of_tg tg_id with
            | None -> None
            | Some (job, rt) when rt.Modes.remaining > 0 ->
                let placement =
                  Sim.Scheduler_intf.place cluster ~tg:rt.tg ~machine ~shared:false
                in
                let dropped = Modes.note_placement modes ~time job rt ~machine in
                cancelled := !cancelled @ dropped;
                Some placement
            | Some _ -> None)
          outcome.placements
      in
      if Obs.enabled () then begin
        let retry =
          Hashtbl.fold
            (fun _ (_, (rt : Modes.tg_rt)) acc -> if rt.remaining > 0 then acc + 1 else acc)
            rt_of_tg 0
        in
        Obs.Registry.incr ~by:retry c_retry
      end;
      Modes.cleanup modes;
      {
        Sim.Scheduler_intf.placements;
        cancelled = !cancelled;
        think = Sim.Scheduler_intf.flow_think ~nodes ~arcs;
        solver_wall = Some outcome.solver.Flow.Mcmf.elapsed_s;
        resilience = None;
      }
    end
  in
  {
    Sim.Scheduler_intf.name = "coco-timeout";
    submit;
    round;
    pending = (fun () -> Modes.pending modes);
    on_task_complete = (fun ~time:_ ~tg:_ ~machine:_ -> ());
    (* The flow network is rebuilt from the live view every round. *)
    on_node_event = (fun ~time:_ ~node:_ ~up:_ -> ());
    drop_task_group = (fun ~time:_ ~tg_id -> Modes.drop_tg modes ~tg_id);
    (* Cheap per-round decisions: recovery replays from genesis. *)
    persist = None;
  }
