(** Min-cost max-flow solver: successive shortest augmenting paths with
    Johnson node potentials.

    The solver routes as much of the positive supply as possible to the
    negative-supply (demand) nodes at minimum total cost.  When the
    instance is infeasible (demand unreachable), the remaining supply is
    simply left unshipped and reported in the result — this matches how
    flow-based schedulers use the solver (an "unscheduled" node normally
    guarantees feasibility).

    Note that this graceful-degradation semantics of [unshipped] is
    specific to this backend.  The cost-scaling backend
    ({!Cost_scaling}) is an exact method that requires a feasible
    instance; it routes stranded supply over artificial
    maximum-penalty arcs, and {!Flow_network.solve_and_extract} maps
    that artificial flow back to a nonzero [unshipped] count here.
    Equal [unshipped] values therefore mean the same thing across
    backends, but only cost-scaling pays the artificial-arc cost in
    [total_cost].

    Negative arc costs are supported: one Bellman–Ford (SPFA) pass
    bootstraps the potentials, after which Dijkstra on reduced costs runs
    each augmentation.  Complexity is O(F · m log n) where F is total
    shipped flow — the same family as Quincy/Firmament's scheduling use. *)

type result = {
  shipped : int;  (** units of supply actually routed to demands *)
  unshipped : int;  (** supply that could not reach any demand *)
  total_cost : int;  (** cost of the final flow *)
  augmentations : int;  (** number of augmenting paths used *)
  elapsed_s : float;  (** monotonic wall-clock solve time ({!Prelude.Clock}) *)
  degraded : bool;
      (** the solve was stopped by its {!Budget} (or an injected
          exhaustion) before completing.  The flow left on the graph is
          still a valid min-cost flow for its (partial) value — every
          SSP prefix is — and passes {!Verify.check}; [unshipped] counts
          what the budget left behind. *)
  profile : Obs.Solver_profile.t;
      (** structured solve profile; per-stage timings are populated only
          when [Obs.enabled ()] held during the solve *)
}

(** Reusable solver workspace: excess/potential/distance/parent arrays
    and the Dijkstra heap.  Pass the same scratch to successive [solve]
    calls on similarly-sized graphs and the solver allocates nothing on
    the hot path after the first round.  Reusing scratch never changes
    results — the workspace is (re)initialised at every solve.

    A scratch is {e domain-local} state: it may migrate between domains
    across solves (the portfolio race hands it to the SSP domain and
    takes it back at join, with happens-before provided by
    [Domain.spawn]/[join]), but must never be used by two concurrent
    solves. *)
type scratch

val scratch : unit -> scratch

(** Which SSP implementation to run.  Both are exact (same shipped flow
    and total cost); they may break ties between equally-cheap augmenting
    paths differently, so outcomes are reproducible per algorithm but
    not across algorithms — pick one per run.

    [Fast] (the default) terminates each Dijkstra at the first settled
    deficit node, invalidates its distance/parent arrays in O(1) with
    generation stamps, updates only the settled nodes' potentials, and
    automatically swaps the binary heap for a monotone bucket queue when
    the graph has no negative costs and a small cost bound
    ({!Graph.cost_ub}).  The heap and bucket queue pop in the same
    canonical (distance, node) order, so queue selection never affects
    results.

    [Classic] is the historical full-settle implementation, retained as
    the reference implementation that the solver tests compare [Fast]
    against. *)
type algo = Classic | Fast

(** [solve ?budget ?ctl ?scratch ?algo g] computes a min-cost max-flow
    on [g], mutating arc flows in place.  Supplies/demands are read from
    the graph's node supplies.  [budget] bounds the solve (checked
    before every augmentation); without one the solve runs to
    completion and [degraded] is always [false] — and no failpoint ever
    touches the solve ({!Budget.for_solve}).

    [ctl], when given, takes precedence over [budget]: the solve uses
    this externally prepared {!Budget.state} (typically carrying a
    cancellation flag, see {!Budget.start}) instead of starting its own,
    and evaluates {e no} failpoints — the caller owns both the budget
    state and the [solve.*] sites.  This is the entry point the
    portfolio race ({!Portfolio}, docs/PARALLELISM.md) uses to run the
    solver on another domain while retaining cancellation and
    deterministic fault injection in the coordinator.

    The solve itself is single-domain but safe to run {e on} any domain:
    it touches only [g], its scratch, its budget state (all owned by the
    calling domain) and reads the obs flag once at entry, emitting
    nothing when obs was quiesced at that point.

    [scratch] provides a reusable workspace (exact; see {!scratch}).

    [algo] (default [Fast]) selects the implementation; see {!algo}. *)
val solve :
  ?budget:Budget.t ->
  ?ctl:Budget.state ->
  ?scratch:scratch ->
  ?algo:algo ->
  Graph.t ->
  result

(** A single decomposed flow path: node sequence from a supply node to a
    demand node, and the amount carried. *)
type path = { nodes : int list; amount : int }

(** [decompose g] decomposes the current flow of [g] into source-to-sink
    paths (cycles cannot occur in a min-cost solution with non-negative
    reduced costs; any residual cycles of zero net cost are ignored).
    The graph's flow is not modified. *)
val decompose : Graph.t -> path list
