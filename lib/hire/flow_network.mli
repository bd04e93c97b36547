(** Construction and interpretation of the HIRE flow network (§5.2/§5.3,
    Fig. 6).

    One network is built per scheduling round over all pending jobs.  It
    contains:

    - a sink [K] and one super flavor-selector [S];
    - per job: a postpone node [P] and, while alternatives are open, a
      flavor selector [F] (edge S→F of capacity 1 — at most one flavor
      decision per job per round);
    - per requesting task group: a group node [G].  Materialized groups
      carry their remaining task count as supply; flavor-undecided groups
      have supply 0 and are fed through [F];
    - the topology part: server machine nodes [Mˢ], an auxiliary node
      [Nˢ] per ToR switch with an edge to each of its alive servers, and
      switch machine nodes [Mⁿ].  All [M]→[K] edges have capacity 1, so a
      machine accepts at most one new task per round (the CoCo
      discipline).  Fig. 6 also has [Nˢ] nodes for the aggregation and
      core switches, the INC shadow copy [Nⁿ] of the topology and the
      edges between switches; no shortcut ends there, so no flow could
      reach them, and they are not built;
    - shortcut edges [G]→[Nˢ]/[Mˢ]/[Mⁿ]: a subtree shortcut is added only
      when *every* server under the subtree can host a task of the group
      (lower-bound propagation), so all flows end in valid allocations;
      network groups get direct switch shortcuts filtered by switch
      support, sharing-aware effective demand, and the switches the group
      already occupies (a chain must use distinct switches).

    Each group keeps its [max_shortcuts] cheapest shortcut candidates
    ({!Cost_model.params}), emitted cheapest first.  Equal costs are
    ordered as [Array.sort] (OCaml 5.1, an unstable heapsort) orders the
    candidates by cost alone when given them in reverse generation
    order: ToRs and their servers in [Fat_tree.tor_switches] order for
    server groups, switches in [Sharing.iter_supporting] order for
    network groups.  That order decides which tied candidates survive
    the cut and sets the arc order the solver breaks ties by; the golden
    network digests and the bench placement digests pin it.

    Costs follow the Appendix-A cost model. *)

type node_role =
  | Super
  | Flavor_sel of int  (** job id *)
  | Group of int  (** tg id *)
  | Postpone of int  (** job id *)
  | Aux_server of int  (** ToR switch id: the aggregator of its servers *)
  | Machine_server of int  (** server id *)
  | Machine_inc of int  (** switch id *)
  | Sink

val pp_role : Format.formatter -> node_role -> unit

type t

(** Persistent network builder.  A builder owns the graph arena, the
    node/arc maps of the topology part, and the ToR aggregates, keeping
    them alive across rounds so that a build only patches what changed
    (per the {!View.t.dirty} set) instead of reallocating everything.

    The builder also owns a memo of locality contexts (the Υ and Γ
    that price Φloc), keyed on a group's related ids as a sorted list.
    Groups with the same related ids share one context within a build,
    and later builds reuse it while the {!Locality.Task_census.stamp}
    of each of those ids is unchanged; a build drops the contexts it
    did not use.  A fresh builder therefore still shares contexts
    within its one build.

    A builder is bound to one cluster (one topology instance and one
    parameter set) and to one census: reuse it only across rounds of
    the same scheduler.
    Incremental and full builds are {e bit-identical} — the patch path
    reproduces exactly the arrays a fresh build would create, and a
    reused context is the one a fresh build would compute, so solver
    results (placements, objective values) never depend on which path
    ran. *)
type builder

(** [create_builder ()] makes a fresh builder.  A patched build first
    undoes the previous round's flow with {!Flow.Graph.reset_flows}. *)
val create_builder : unit -> builder

(** Per-build patching statistics of the network a builder produced
    last: [touched_arcs] counts patched prefix arcs plus rebuilt suffix
    arcs ([= total_arcs] on a full rebuild). *)
type build_stats = {
  full : bool;
  touched_arcs : int;
  total_arcs : int;
  builds : int;
  full_rebuilds : int;
}

val stats : t -> build_stats
val graph : t -> Flow.Graph.t
val role : t -> int -> node_role

(** (nodes, arcs) of the paper's full Fig. 6 network: the built graph
    plus the unreachable topology part a full build leaves out (an [Nⁿ]
    node per switch, an [Nˢ] node per aggregation or core switch, an
    [Nⁿ]→[Mⁿ] arc per [Mⁿ] and two arcs per switch-switch link).  It
    is the only input of the simulated think time, so it prices the
    network HIRE's solver would face; {!stats}' [total_arcs] is the
    built arc count. *)
val size : t -> int * int

(** [build ?builder view census ~jobs ~now ~params] assembles the
    network for the given pending jobs (FIFO-truncated to
    [params.max_queue_tgs] requesting task groups, as in §6.2).

    Without [builder] (or on a builder's first use, or whenever the
    view's dirty set is structural) the whole network is
    built from scratch.  With a warmed-up [builder] and a
    non-structural dirty set, the long-lived topology part is patched
    in place and only the per-round job part is rebuilt.  The view's
    dirty set is cleared either way. *)
val build :
  ?builder:builder ->
  View.t ->
  Locality.Task_census.t ->
  jobs:Pending.job_state list ->
  now:float ->
  params:Cost_model.params ->
  t

type outcome = {
  placements : (int * int) list;  (** (tg_id, machine id), one task each *)
  flavor_picks : (int * int) list;
      (** (job_id, tg_id routed through the job's F node) *)
  solver : Flow.Mcmf.result;
}

(** Which exact MCMF algorithm solves the round (the paper's artifact
    races several solvers; all produce flows of identical cost).
    [Ssp] runs the fast implementation (docs/PERFORMANCE.md, "The SSP
    solve"). *)
type solver = Ssp | Cost_scaling

val solver_name : solver -> string

(** [solve_only ?solver ?budget t] runs the MCMF solve, leaving the flow
    on the graph, without extracting decisions.  With [budget] the solve
    is bounded ({!Flow.Budget}); a degraded SSP result leaves a valid
    partial flow, a degraded cost-scaling result leaves the zero flow.
    Splitting solve from extraction lets the resilience layer run the
    invariant guard (and the flow.corrupt failpoint) on the raw flow
    before any decision is read off it.

    [scratch] is forwarded to {!Flow.Mcmf.solve} when the SSP backend
    runs (cost scaling ignores it); scratch reuse is exact. *)
val solve_only :
  ?solver:solver -> ?budget:Flow.Budget.t -> ?scratch:Flow.Mcmf.scratch -> t -> Flow.Mcmf.result

(** [extract t ~solver] reads scheduling decisions off the flow
    decomposition of [t]'s graph.  Nodes unknown to the network (e.g.
    cost-scaling's virtual feasibility node) are skipped. *)
val extract : t -> solver:Flow.Mcmf.result -> outcome

(** Solve the MCMF instance and read scheduling decisions back off the
    flow decomposition: [extract t ~solver:(solve_only ?solver ?budget t)]. *)
val solve_and_extract :
  ?solver:solver ->
  ?budget:Flow.Budget.t ->
  ?scratch:Flow.Mcmf.scratch ->
  t ->
  outcome
