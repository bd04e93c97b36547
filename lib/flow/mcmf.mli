(** Min-cost max-flow solver: successive shortest augmenting paths with
    Johnson node potentials.

    The solver routes as much of the positive supply as possible to the
    negative-supply (demand) nodes at minimum total cost.  When the
    instance is infeasible (demand unreachable), the remaining supply is
    simply left unshipped and reported in the result — this matches how
    flow-based schedulers use the solver (an "unscheduled" node normally
    guarantees feasibility).

    The cost-scaling backend ({!Cost_scaling}) is an exact method that
    requires a feasible instance; it routes stranded supply over
    artificial maximum-penalty arcs and returns this same record, with
    the supply that took them counted in [unshipped] and their cost left
    out of [total_cost].  Equal [unshipped] values therefore mean the
    same thing across backends.

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

(** Reusable solver workspace: excess/potential/distance/parent arrays,
    the per-node lists of live residual twins, the zero-length search's
    frontier (a min-heap of node ids, one [int array] of n slots), and
    the Dijkstra's binary heap.  It grows with the instance (never
    shrinks) and is reused: a solve that reuses a large enough scratch
    allocates nothing sized by the node or arc count, except the SPFA
    bootstrap of a graph with negative costs.  Pass the same scratch to
    successive solves of similarly-sized graphs and, after the first
    round, a solve with {!Obs} disabled allocates only its fixed
    per-call values (result, profile, a few closures) — nothing per
    augmentation or per settled node.  Reusing scratch never changes
    results — the workspace is (re)initialised at every solve.

    A scratch must never be used by two concurrent solves. *)
type scratch

val scratch : unit -> scratch

(** [solve ?budget ?scratch g] computes a min-cost max-flow on [g],
    mutating arc flows in place.  Supplies/demands are read from the
    graph's node supplies.  [budget] bounds the solve (checked before
    every augmentation); without one the solve runs to completion and
    [degraded] is always [false] — and no failpoint ever touches the
    solve ({!Budget.for_solve}).

    [scratch] provides a reusable workspace (exact; see {!scratch}).

    Each augmentation first searches for a path of reduced length 0,
    relaxing only arcs of reduced cost 0 and popping in node order: the
    sources come from a list kept in ascending order, the other nodes
    from a heap of node ids.  Such a path is exactly the one the
    Dijkstra would return.  When there is none, the Dijkstra resumes
    that search instead of starting over: it keeps its distances,
    parents and settled nodes, replays their scans in settle order to
    seed its queue, and goes on from there, so one search generation
    serves each augmentation and the result is the same as a Dijkstra
    from scratch.

    The Dijkstra pops in the canonical (distance, node) order of
    {!Prelude.Heap.Int_pair}, terminates at the first settled deficit
    node, invalidates its distance/parent arrays in O(1) with
    generation stamps, and updates only the settled nodes' potentials.
    A settled node's scan walks only its forward arcs and the residual
    twins that have capacity, in {!Graph.iter_out} order; its
    relaxations are exactly those of a scan over every residual arc, so
    this never affects results.  The tests compare the solver with two
    reference SSPs (test/ssp_reference.ml): a full-settle one on
    objectives, and one that scans every residual arc on per-arc
    flows. *)
val solve : ?budget:Budget.t -> ?scratch:scratch -> Graph.t -> result

(** A single decomposed flow path: node sequence from a supply node to a
    demand node, and the amount carried. *)
type path = { nodes : int list; amount : int }

(** [decompose g] decomposes the current flow of [g] into simple
    source-to-sink paths, which together carry everything the flow
    ships from supply to demand nodes.  A min-cost flow may still
    contain cycles of zero cost (flow on both arcs of a zero-cost
    antiparallel pair, say); a walk that closes one removes the cycle's
    bottleneck from it and goes on, so cycles are left out of the paths
    and every call ends.  A path leaves each node by its forward arcs
    in {!Graph.iter_out} order.  Allocates per node, not per arc.  The
    graph's flow is not modified. *)
val decompose : Graph.t -> path list
