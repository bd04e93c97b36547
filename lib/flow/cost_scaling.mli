(** Cost-scaling min-cost flow (Goldberg–Tarjan ε-relaxation with
    push/relabel), the algorithm family used by Firmament's fastest
    solver.  The paper's artifact runs several MCMF solvers in parallel
    and takes the fastest; this module provides the second algorithm for
    the same role (and for cross-checking — both must produce flows of
    identical cost).

    The solver works on integer costs and capacities.  To guarantee a
    feasible circulation on arbitrary instances, it routes any
    otherwise-unshippable supply over artificial arcs through one virtual
    node added to the graph; those arcs carry prohibitive cost, so they
    are used only when the instance itself is infeasible.  The virtual
    node and arcs remain in the graph after solving (flow 0 on feasible
    instances) — harmless for {!Verify} but callers comparing node
    counts should solve on a scratch copy.

    Which optimum the solver returns among flows of equal cost depends
    on the graph's node count, not only on its arcs: costs are scaled
    by [n + 1] ([n] counts the virtual node), and the artificial arcs
    cost [max|c| * (n0 + 2) + 1], where [n0] is the node count before
    the virtual node.  Adding or dropping nodes that carry no flow
    keeps the optimal cost, and leaves every {!Mcmf} result unchanged,
    but can move the optimum picked here.  HIRE's [hire-scaling]
    placements move with it: when the flow network stopped building
    the topology nodes no shortcut reaches, [hire_sim -s hire-scaling
    -k 8 --horizon 120 --util 1.5 --mu 0.7 --seeds 1,2] changed on
    seed 1 from detour 0.094 and 744 rounds to detour 0.125 and 802
    rounds, while the SSP schedulers' outputs stayed byte-identical.
    Compare [hire-scaling] outputs only between networks of the same
    node count. *)

(** [solve ?budget g] runs cost scaling, dividing ε by 8 each
    phase.  Arc flows of [g] are left at the optimum.

    The result is the SSP's record, read the same way: [shipped] is the
    supply routed to real demands, [unshipped] the supply that needed
    the artificial arcs, and [total_cost] excludes the artificial arcs.
    [augmentations] counts pushes; the phase, push and relabel counts
    are in [profile].

    [budget] bounds the solve (checked at phase and discharge
    boundaries; pushes and relabels are the step currency).  Unlike
    SSP, a cost-scaling run holds only a pseudoflow mid-run — nothing
    salvageable — so on exhaustion the flow is reset to zero, everything
    is reported unshipped and the result is flagged [degraded].
    Without a budget no failpoint ever touches the solve
    ({!Budget.for_solve}). *)
val solve : ?budget:Budget.t -> Graph.t -> Mcmf.result
