(** Name-indexed constructors for all schedulers, used by the CLI and the
    benchmark harness. *)

(** Known scheduler names: hire, hire-simple (the paper's §6.3 flavor
    ablation), hire-scaling (cost-scaling MCMF solver), hire-noloc /
    hire-noshare (cost-model ablations), yarn-concurrent, yarn-timeout,
    k8-concurrent, k8-timeout, sparrow-concurrent, sparrow-timeout,
    coco-timeout. *)
val names : string list

(** [create name ~seed cluster] builds the scheduler.  [resilience]
    is the solver-resilience policy (docs/RESILIENCE.md) of the
    flow-based HIRE variants, [Hire.Hire_scheduler.resilience ()] when
    omitted; the baselines ignore it.  [incremental]
    (default [true]) enables the persistent flow-network builder and
    solver-scratch reuse on the HIRE variants — results are identical
    either way (docs/PERFORMANCE.md).
    [false] selects the reference path that the end-to-end identity
    properties (test/test_incremental.ml) compare the default against.
    [reopt] and [portfolio] exist only because [bench/perf] passes
    them; they go with the next change to the benchmark.  [reopt] is
    accepted and ignored: the sparse flow reset it selected was
    removed, and every patched build resets flows with a full sweep.
    [false] (the default) is the only accepted value of [portfolio]:
    the solver race it selected was removed.
    @raise Invalid_argument on unknown names and on [~portfolio:true]. *)
val create :
  ?resilience:Hire.Hire_scheduler.resilience ->
  ?incremental:bool ->
  ?reopt:bool ->
  ?portfolio:bool ->
  string ->
  seed:int ->
  Sim.Cluster.t ->
  Sim.Scheduler_intf.t
