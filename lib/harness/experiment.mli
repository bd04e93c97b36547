(** One experiment cell of the paper's sweep (§6.2): a ⟨scheduler, μ,
    switch setup⟩ triple on a fat-tree cluster, replaying a synthetic
    Alibaba-like trace.  The paper runs each cell with three seeds. *)

type spec = {
  scheduler : string;  (** a {!Schedulers.Registry} name *)
  mu : float;  (** target ratio of jobs requesting INC *)
  setup : Sim.Cluster.inc_setup;
  k : int;  (** fat-tree arity *)
  horizon : float;  (** trace length, seconds *)
  seed : int;
  target_utilization : float;  (** offered CPU load of the trace *)
  inc_capable_fraction : float option;
      (** overrides the cluster's default INC-capable switch fraction.
          [default] pins it to 0.15 — the calibration at k=8 that puts
          INC demand at μ=1 moderately above the retrofitted baselines'
          effective switch capacity, reproducing the paper's contention
          regime (their k=26 testbed has every switch INC-capable).  Use
          [Some 1.0] when running the full k=26 configuration. *)
  faults : Faults.spec option;
      (** [Some _] injects a fault plan generated deterministically from
          the cell's seed (an independent RNG stream: the trace, the
          scenario, and the cluster are identical with faults on or
          off).  [None] (the default) reproduces the fault-free
          simulator byte for byte. *)
  resilience : Hire.Hire_scheduler.resilience option;
      (** solver-resilience policy for flow-based schedulers
          (docs/RESILIENCE.md); [None] (the default) runs
          [Hire.Hire_scheduler.resilience ()], one unbounded solve per
          round with no guard, and keeps the cell's pre-resilience cache
          key *)
  incremental : bool;
      (** [true] (the default) lets HIRE variants patch a persistent
          flow network between rounds instead of rebuilding it
          (docs/PERFORMANCE.md).  Results are bit-identical either way,
          so the default keeps the historical cache key.  [false]
          rebuilds the network every round: it is the reference path of
          the end-to-end identity properties (test/test_incremental.ml)
          and gets separate cells. *)
  reopt : bool;
      (** exists only because [bench/perf] reads it; it goes with the
          next change to the benchmark.  It selects nothing: the sparse
          flow reset it selected was removed (docs/PERFORMANCE.md, "The
          sparse reset (deleted)").  It stays in {!cell_key} (where
          [false] still gets separate cells), {!describe} and the spec
          blob, so existing caches and journals keep their keys and
          bytes. *)
  portfolio : bool;
      (** exists only because [bench/perf] builds its cells through
          {!Schedulers.Registry.create} with it; it goes with the
          next change to the benchmark.  Must stay [false] (the default): the solver
          race it selected was removed, and [true] makes {!run} raise
          [Invalid_argument].  Not part of {!cell_key}. *)
}

val default : spec

(** Parameter sweep helper: [{ default with ... }] for each μ, seed, ... *)
val run : spec -> Sim.Metrics.report

(** Build the whole world of a spec — cluster, workload, scheduler, fault
    plan — and hand back the initialized, not-yet-executed simulation.
    [run] is exactly [prepare] + {!Sim.Simulator.step} to exhaustion +
    {!Sim.Simulator.finish}.  The internal RNG split order is part of a
    spec's identity: journaled runs rebuild their world through this
    function during crash recovery (docs/JOURNAL.md), so equal specs
    always produce byte-identical simulations. *)
val prepare : ?config:Sim.Simulator.config -> spec -> Sim.Simulator.t

(** Self-describing binary encoding of a spec, written as the WAL header
    of journaled runs so recovery can rebuild the world without any
    out-of-band state (docs/JOURNAL.md).  Round-trips exactly:
    [spec_of_blob (spec_to_blob s) = s]. *)
val spec_to_blob : spec -> string

(** Inverse of {!spec_to_blob}.
    @raise Prelude.Codec.Error on malformed, truncated, or
    wrong-version blobs. *)
val spec_of_blob : string -> spec

(** [run_seeds spec seeds] runs one cell per seed. *)
val run_seeds : spec -> int list -> Sim.Metrics.report list

(** Mean of a per-report statistic across seeds. *)
val mean_over : (Sim.Metrics.report -> float) -> Sim.Metrics.report list -> float

(** [sweep base ~schedulers ~mus ~setups ~seeds] enumerates one spec per
    cell of the cross product, as [{ base with scheduler; mu; setup;
    seed }].  Omitted axes default to the singleton taken from [base].
    Enumeration order is deterministic and setup-major: setups, then
    schedulers, then μ values, then seeds, each in the order given —
    the order the paper's tables are printed in, and the order
    [bin/hire_sweep] emits CSV rows in. *)
val sweep :
  ?schedulers:string list ->
  ?mus:float list ->
  ?setups:Sim.Cluster.inc_setup list ->
  ?seeds:int list ->
  spec ->
  spec list

(** One-line human-readable cell description (runner progress lines,
    failure records). *)
val describe : spec -> string

(** [cell_key spec] is a content hash (hex digest) of everything that
    determines the cell's result: topology (k, setup, INC fraction),
    workload (horizon, offered load, μ), scheduler, seed, and the fault
    plan/policy if any.  Equal specs hash equal; any semantic change
    hashes different.  Used as the {!Runner.Cache} key, so resumed
    sweeps recompute exactly the cells whose config changed.  The hash
    also folds in an internal schema version — bump it when simulator
    semantics change the meaning of a result without the spec
    changing. *)
val cell_key : spec -> string
