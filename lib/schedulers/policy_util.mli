(** Shared helpers for the retrofitted baseline policies: feasibility
    checks through the simulator API "borrowing semantics from HIRE"
    (§6.1, point 4) — baselines iterate only over machines matching
    resource constraints, INC compatibility, and multiplexing
    constraints.

    These run once per machine a baseline scans, millions of times per
    figure cell, so none of them copies a ledger: servers are read
    through the scheduler's {!Hire.View.t} and switches through
    {!Hire.Sharing}'s checks in place. *)

module Poly_req = Hire.Poly_req

(** [server_fits view ~server ~demand] — the server is alive and the
    demand fits its remaining resources.  It reads the view's live
    ledger in place; each baseline fetches its view once, at creation. *)
val server_fits : Hire.View.t -> server:int -> demand:Prelude.Vec.t -> bool

(** [switch_feasible cluster ~switch rt] — supports the service, fits the
    unshared demand ([rt.switch_demand]), respects the overlay shape
    (ToR-only services), and is not already used by this group (chains
    need distinct switches).  It allocates nothing. *)
val switch_feasible : Sim.Cluster.t -> switch:int -> Modes.tg_rt -> bool

(** [preferred_tors topo job] — the sorted, unique ToRs of the machines
    the job has placed tasks on (a server counts under its ToR, a ToR
    switch as itself).  It folds only the placements made since its
    last call into [job.tors] and returns that list, so Yarn++ pays per
    placement, not per pick. *)
val preferred_tors : Topology.Fat_tree.t -> Modes.mjob -> int list

(** All machine ids of the class the group runs on (servers or
    switches). *)
val machine_pool : Sim.Cluster.t -> Modes.tg_rt -> int array
