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
    [reopt] (default [true]) additionally makes the persistent builder
    undo the previous round's flow sparsely via touched-arc tracking —
    again bit-identical either way, and ignored without [incremental].
    [false] for either selects the reference path that the end-to-end
    identity properties (test/test_incremental.ml, test/test_reopt.ml)
    compare the default against.
    [portfolio] exists only because [bench/perf] passes it; it goes
    with the next change to the benchmark.  [false] (the default) is the only
    accepted value: the solver race it selected was removed.
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
