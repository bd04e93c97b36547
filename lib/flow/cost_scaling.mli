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
    counts should solve on a scratch copy. *)

type result = {
  shipped : int;  (** supply routed to real demands *)
  unshipped : int;  (** supply that needed the artificial arcs *)
  total_cost : int;  (** cost of the final flow, artificial arcs excluded *)
  phases : int;  (** ε-scaling phases executed *)
  pushes : int;
  relabels : int;
  elapsed_s : float;  (** monotonic wall-clock solve time ({!Prelude.Clock}) *)
  degraded : bool;
      (** the solve was stopped by its {!Budget} before completing.
          Unlike SSP, a cost-scaling run holds only a pseudoflow mid-run
          — nothing salvageable — so the abort resets the graph to the
          zero flow and reports everything unshipped. *)
  profile : Obs.Solver_profile.t;
      (** structured solve profile; per-stage timings are populated only
          when [Obs.enabled ()] held during the solve *)
}

(** [solve ?alpha ?budget g] runs cost scaling with scale factor
    [alpha] (default 8).  Arc flows of [g] are left at the optimum.
    [budget] bounds the solve (checked at phase and discharge
    boundaries; pushes and relabels are the step currency); on
    exhaustion the flow is reset to zero and the result is flagged
    [degraded].  Without a budget no failpoint ever touches the solve
    ({!Budget.for_solve}). *)
val solve : ?alpha:int -> ?budget:Budget.t -> Graph.t -> result
