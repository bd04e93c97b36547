module Poly_req = Hire.Poly_req
module Vec = Prelude.Vec
module Fat_tree = Topology.Fat_tree

let unshared_parts (tg : Poly_req.task_group) =
  match tg.kind with
  | Poly_req.Server_tg -> invalid_arg "Policy_util.unshared_parts: not a network group"
  | Poly_req.Network_tg n ->
      (n.service, Vec.zero (Vec.dim tg.demand), Vec.add n.per_switch tg.demand)

(* Liveness is part of feasibility: every baseline routes server picks
   through here, so dead servers are masked for all of them at once
   (switch liveness is masked inside [Sharing.can_place]).  The view's
   ledger is the live one, read in place. *)
let server_fits (view : Hire.View.t) ~server ~demand =
  view.alive server && Vec.fits ~demand ~available:(view.server_available server)

let switch_feasible cluster ~switch (rt : Modes.tg_rt) =
  match rt.tg.Poly_req.kind with
  | Poly_req.Server_tg -> false
  | Poly_req.Network_tg n ->
      let shape_ok =
        match n.shape with
        | Hire.Comp_store.Single_tor ->
            Fat_tree.kind (Sim.Cluster.topo cluster) switch = Fat_tree.Tor
        | _ -> true
      in
      shape_ok
      && (not (List.mem switch rt.placed_on))
      &&
      let service, per_switch, per_instance = unshared_parts rt.tg in
      Hire.Sharing.can_place (Sim.Cluster.sharing cluster) ~switch ~service ~per_switch
        ~per_instance

let rec mem_tor (tor : int) = function [] -> false | t :: rest -> t = tor || mem_tor tor rest

let rec insert_tor (tor : int) = function
  | t :: rest when t < tor -> t :: insert_tor tor rest
  | l -> tor :: l

(* Fold the placements made since the last call into the job's sorted
   ToR set: a server counts under its ToR, a ToR as itself, and
   aggregation and core switches not at all. *)
let preferred_tors topo (job : Modes.mjob) =
  (match job.unread with
  | [] -> ()
  | unread ->
      List.iter
        (fun m ->
          let tor =
            match Fat_tree.kind topo m with
            | Fat_tree.Server -> Fat_tree.tor_of_server topo m
            | Fat_tree.Tor -> m
            | Fat_tree.Agg | Fat_tree.Core -> -1
          in
          if tor >= 0 && not (mem_tor tor job.tors) then job.tors <- insert_tor tor job.tors)
        unread;
      job.unread <- []);
  job.tors

let machine_pool cluster (rt : Modes.tg_rt) =
  let topo = Sim.Cluster.topo cluster in
  if Poly_req.is_network rt.tg then Fat_tree.switches topo else Fat_tree.servers topo
