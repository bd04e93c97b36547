(** Name-indexed constructors for all schedulers, used by the CLI and the
    benchmark harness. *)

(** Known scheduler names: hire, hire-simple (the paper's §6.3 flavor
    ablation), hire-scaling (cost-scaling MCMF solver), hire-noloc /
    hire-noshare (cost-model ablations), yarn-concurrent, yarn-timeout,
    k8-concurrent, k8-timeout, sparrow-concurrent, sparrow-timeout,
    coco-timeout. *)
val names : string list

(** [create name ~seed cluster] builds the scheduler.  [resilience]
    installs a solver-resilience policy (docs/RESILIENCE.md) on the
    flow-based HIRE variants; the baselines ignore it.  [incremental]
    (default [true]) enables the persistent flow-network builder and
    solver-scratch reuse on the HIRE variants — results are identical
    either way (docs/PERFORMANCE.md).
    [reopt] (default [true]) additionally makes the persistent builder
    undo the previous round's flow sparsely via touched-arc tracking —
    again bit-identical either way, and ignored without [incremental].
    [false] for either selects the reference path that the end-to-end
    identity properties (test/test_incremental.ml, test/test_reopt.ml)
    compare the default against.
    [portfolio] races the MCMF backends on OCaml 5 domains on the HIRE
    variants (docs/PARALLELISM.md) — effective only together with a
    [resilience] policy; [portfolio_eager] overrides the race's spawn
    policy (tests force eager fan-out).
    @raise Invalid_argument on unknown names. *)
val create :
  ?resilience:Hire.Hire_scheduler.resilience ->
  ?incremental:bool ->
  ?reopt:bool ->
  ?portfolio:bool ->
  ?portfolio_eager:bool ->
  string ->
  seed:int ->
  Sim.Cluster.t ->
  Sim.Scheduler_intf.t
