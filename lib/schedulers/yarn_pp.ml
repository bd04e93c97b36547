module Poly_req = Hire.Poly_req
module Fat_tree = Topology.Fat_tree

let rack_preference_delay = 0.1 (* seconds *)
let think_per_alloc = 0.0012

let create ~mode cluster =
  let modes = Modes.create ~revert_after:60.0 mode in
  let topo = Sim.Cluster.topo cluster in
  let view = Sim.Cluster.view cluster in
  let pick ~time (job : Modes.mjob) (rt : Modes.tg_rt) =
    match rt.tg.Poly_req.kind with
    | Poly_req.Network_tg _ ->
        (* Locality-unaware: first feasible switch in id order. *)
        Array.find_opt
          (fun s -> Policy_util.switch_feasible cluster ~switch:s rt)
          (Fat_tree.switches topo)
    | Poly_req.Server_tg -> (
        let demand = rt.tg.Poly_req.demand in
        let preferred = Policy_util.preferred_tors topo job in
        let in_preferred_rack =
          List.find_map
            (fun tor ->
              Array.find_opt
                (fun s -> Policy_util.server_fits view ~server:s ~demand)
                (Fat_tree.servers_under topo tor))
            preferred
        in
        match in_preferred_rack with
        | Some s -> Some s
        | None ->
            if preferred <> [] && time -. job.arrival < rack_preference_delay then
              None (* delay scheduling: wait briefly for the preferred rack *)
            else
              Array.find_opt
                (fun s -> Policy_util.server_fits view ~server:s ~demand)
                (Fat_tree.servers topo))
  in
  let order_jobs jobs =
    (* Service queue drains before the batch queue; FIFO within each. *)
    let service, batch =
      List.partition
        (fun (j : Modes.mjob) -> j.poly.Poly_req.priority = Workload.Job.Service)
        jobs
    in
    service @ batch
  in
  Queue_base.make
    ~name:("yarn-" ^ Modes.mode_to_string mode)
    ~think_per_alloc ~order_jobs ~pick cluster modes
