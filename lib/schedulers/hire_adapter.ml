module Poly_req = Hire.Poly_req
module Hire_scheduler = Hire.Hire_scheduler

let think_of ~nodes ~arcs = 0.0005 +. (3e-7 *. float_of_int (nodes + arcs))

let create ?(simple_flavor = false) ?(params = Hire.Cost_model.default_params)
    ?(solver = Hire.Flow_network.Ssp) ?(shared = true)
    ?(resilience = Hire_scheduler.resilience ()) ?(incremental = true) ?(reopt = true) ?name
    cluster =
  let config =
    { Hire_scheduler.params; simple_flavor; solver; resilience; incremental; reopt }
  in
  let sched = Hire_scheduler.create ~config (Sim.Cluster.view cluster) in
  let round ~time =
    let o = Hire_scheduler.run_round sched ~time in
    let placements =
      List.map
        (fun ((tg : Poly_req.task_group), machine) ->
          let charged =
            match tg.kind with
            | Poly_req.Server_tg ->
                Sim.Cluster.place_server_task cluster ~server:machine ~demand:tg.demand;
                None
            | Poly_req.Network_tg _ ->
                Some (Sim.Cluster.place_network_task cluster ~switch:machine ~tg ~shared)
          in
          { Sim.Scheduler_intf.tg; machine; shared; charged })
        o.placements
    in
    {
      Sim.Scheduler_intf.placements;
      cancelled = o.cancelled;
      think =
        (if o.graph_nodes = 0 then 0.0005
         else think_of ~nodes:o.graph_nodes ~arcs:o.graph_arcs);
      solver_wall = Option.map (fun (r : Flow.Mcmf.result) -> r.elapsed_s) o.solver;
      resilience = Some o.resilience;
    }
  in
  {
    Sim.Scheduler_intf.name =
      (match name with
      | Some n -> n
      | None -> if simple_flavor then "hire-simple" else "hire");
    submit = (fun ~time poly -> Hire_scheduler.submit sched ~time poly);
    round;
    pending = (fun () -> Hire_scheduler.pending_work sched);
    on_task_complete =
      (fun ~time:_ ~tg ~machine ->
        Hire_scheduler.on_task_complete sched ~tg_id:tg.Poly_req.tg_id ~machine);
    (* The flow network is rebuilt from the view each round, and the
       task census is already cleaned by the killed tasks'
       [on_task_complete] calls. *)
    on_node_event = (fun ~time:_ ~node:_ ~up:_ -> ());
    drop_task_group =
      (fun ~time:_ ~tg_id -> Hire_scheduler.drop_task_group sched ~tg_id);
    persist =
      Some
        {
          Sim.Scheduler_intf.snapshot = (fun () -> Hire_scheduler.snapshot sched);
          restore = Hire_scheduler.restore sched;
        };
  }
