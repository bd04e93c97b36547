module Poly_req = Hire.Poly_req
module Vec = Prelude.Vec
module Fat_tree = Topology.Fat_tree

(* Liveness is part of feasibility: every baseline routes server picks
   through here, so dead servers are masked for all of them at once
   (switch liveness is masked inside [Sharing.supports]).  The view's
   ledger is the live one, read in place. *)
let server_fits (view : Hire.View.t) ~server ~demand =
  view.alive server && Vec.fits ~demand ~available:(view.server_available server)

(* [Sharing.can_place] with a zero per-switch demand and [demand] per
   instance, without its copy: with or without an instance of the
   service on the switch, the effective demand is [demand]'s values. *)
let switch_feasible cluster ~switch (rt : Modes.tg_rt) =
  match (rt.tg.Poly_req.kind, rt.switch_demand) with
  | Poly_req.Network_tg n, Some demand ->
      let shape_ok =
        match n.shape with
        | Hire.Comp_store.Single_tor ->
            Fat_tree.kind (Sim.Cluster.topo cluster) switch = Fat_tree.Tor
        | _ -> true
      in
      shape_ok
      && (not (List.mem switch rt.placed_on))
      &&
      let sharing = Sim.Cluster.sharing cluster in
      Hire.Sharing.supports sharing ~switch ~service:n.service
      && Vec.fits ~demand ~available:(Hire.Sharing.live_available sharing switch)
  | _ -> false

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
