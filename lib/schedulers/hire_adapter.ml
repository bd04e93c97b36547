module Poly_req = Hire.Poly_req
module Hire_scheduler = Hire.Hire_scheduler

let create ?(simple_flavor = false) ?(params = Hire.Cost_model.default_params)
    ?(solver = Hire.Flow_network.Ssp) ?(shared = true)
    ?(resilience = Hire_scheduler.resilience ()) ?(incremental = true) ?name
    cluster =
  let config = { Hire_scheduler.params; simple_flavor; solver; resilience; incremental } in
  let sched = Hire_scheduler.create ~config (Sim.Cluster.view cluster) in
  let round ~time =
    let o = Hire_scheduler.run_round sched ~time in
    let placements =
      List.map
        (fun (tg, machine) -> Sim.Scheduler_intf.place cluster ~tg ~machine ~shared)
        o.placements
    in
    {
      Sim.Scheduler_intf.placements;
      cancelled = o.cancelled;
      think =
        (if o.graph_nodes = 0 then Sim.Scheduler_intf.idle_think
         else Sim.Scheduler_intf.flow_think ~nodes:o.graph_nodes ~arcs:o.graph_arcs);
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
