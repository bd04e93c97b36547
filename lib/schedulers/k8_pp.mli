(** K8++ (§6.1): a queue-based best-effort policy inspired by
    Kubernetes' default scheduler.  For each request it resumes a
    round-robin cursor over the machines, collects feasible candidates
    until it has seen 5% of the fleet that fits (sampling at most 10% of
    machines before settling for whatever was found), scores them with
    the default multi-dimensional cost model (least-requested combined
    with balanced-allocation), and allocates the best. *)

val create : mode:Modes.mode -> Sim.Cluster.t -> Sim.Scheduler_intf.t

(** [score ~capacity ~available ~demand] is the K8 default score of a
    machine with remaining resources [available] after it takes
    [demand]: the mean free fraction plus one minus the standard
    deviation of the used fractions, halved.  It allocates nothing.
    Test hook: test_properties checks it bit for bit against the
    Vec/Stats array formula it replaced, which no scheduling decision
    can show (a tie or a last-bit difference changes no pick in most
    cells). *)
val score : capacity:Prelude.Vec.t -> available:Prelude.Vec.t -> demand:Prelude.Vec.t -> float
