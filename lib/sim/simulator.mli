(** Discrete-event cluster-scheduling simulator (in the spirit of the
    paper's Omega-style simulator, §6.2).

    Events: job arrivals, scheduling rounds, task completions — and,
    with a {!Faults.Plan.t}, node failures/recoveries.  Rounds are
    triggered by state changes (arrivals, completions) and re-armed
    after the scheduler's simulated think time while it keeps making
    progress; an idle scheduler with unplaceable work backs off instead
    of busy-looping.  Schedulers charge the cluster ledgers while
    deciding; the simulator schedules the matching task completions,
    releases resources when tasks finish, and feeds the metrics.

    Fault semantics (docs/FAULTS.md): a [Node_fail] kills every task
    running on the node, refunds their ledger charges, flips the
    cluster's liveness mask, and notifies the scheduler; the lost
    instances of each affected task group are re-submitted as a
    materialized single-group request after an exponential backoff, up
    to the policy's retry budget, then cancelled.  A [Node_recover]
    restores the liveness mask and re-arms a round. *)

(** Scheduling continues for 300 s past the last arrival; rounds are at
    least 1 ms apart, and a round that placed nothing is retried after
    0.25 s. *)
type config = {
  gang : bool;
      (** gang semantics (§5.1, no partial scheduling): tasks of a group
          hold resources from placement but start running — and complete —
          only once the whole group is placed (default false: tasks start
          as placed, the paper simulator's behaviour for latency
          accounting) *)
  deterministic_wall : bool;
      (** substitute the simulated think time for the measured solver
          wall time in the metrics (docs/JOURNAL.md): journaled runs
          need byte-identical reports across a crash/recovery replay,
          and measured wall times are the one nondeterministic input.
          Default false — the off path is byte-identical to the
          pre-journal simulator. *)
}

val default_config : config

type result = {
  report : Metrics.report;
  end_time : float;  (** simulated seconds at finalization *)
  events_processed : int;
}

(** [run ~config cluster scheduler arrivals] replays the arrival stream
    to completion and returns the metric report.

    [faults] injects a deterministic fail/recover script;
    [fault_policy] (default {!Faults.Policy.default}) governs the
    requeue/backoff of killed task groups.  Without [faults] the run is
    byte-identical to a fault-free simulator. *)
val run :
  ?config:config ->
  ?faults:Faults.Plan.t ->
  ?fault_policy:Faults.Policy.t ->
  Cluster.t ->
  Scheduler_intf.t ->
  (float * Hire.Poly_req.t) list ->
  result

(** {1 Stepped execution}

    The event loop as an explicit state machine, for callers that need
    to interleave the simulation with journaling (docs/JOURNAL.md):
    [run] above is exactly [init] + [step] to exhaustion + [finish]. *)

(** A live simulation. *)
type t

(** Same inputs as {!run}; the fault plan and arrival stream are queued
    up front, nothing is executed yet. *)
val init :
  ?config:config ->
  ?faults:Faults.Plan.t ->
  ?fault_policy:Faults.Policy.t ->
  Cluster.t ->
  Scheduler_intf.t ->
  (float * Hire.Poly_req.t) list ->
  t

(** Process the next event.  [emit] receives the {!Wal.record}s the
    event gives rise to — in order, before their effects become
    externally visible (a [Round] record is emitted after the scheduler
    decided, and charged the cluster ledgers, but before the placements
    enter the running-task registry).  Returns [false] once the event
    queue is empty. *)
val step : ?emit:(Wal.record -> unit) -> t -> bool

(** Finalize metrics and build the result (call once, after [step]
    returns [false]). *)
val finish : t -> result

val now : t -> float
val events_processed : t -> int

(** True when the event queue is empty (the next {!step} would return
    [false]). *)
val quiescent : t -> bool

(** [inject t ~time poly] queues an externally submitted job — one the
    static arrival stream knows nothing about — as an arrival at
    simulated time [time], rewriting [poly.arrival] to [time] and
    extending the scheduling horizon past it (admission front-end,
    docs/SERVER.md).  Only call between {!step}s, with non-decreasing
    times: journal recovery re-applies injections at their recorded
    stream positions, so the live interleaving must be reproducible.
    @raise Invalid_argument on a non-finite [time] or one before
    {!now}. *)
val inject : t -> time:float -> Hire.Poly_req.t -> unit

(** Scheduling rounds executed so far (= the [round] field of the last
    {!Wal.Round} record). *)
val rounds : t -> int

val metrics : t -> Metrics.t

(** {1 Checkpointing (docs/JOURNAL.md)} *)

(** Whether the scheduler offers {!Scheduler_intf.persist} — without it
    [snapshot] returns [None] and recovery must replay from genesis. *)
val can_snapshot : t -> bool

(** Serialize the complete dynamic state: event queue (with tie-break
    sequence numbers), running-task registry, requeue/gang bookkeeping,
    cluster ledgers, metrics, and the scheduler's own snapshot.  The
    static inputs (topology, arrivals, fault plan, config) are not
    captured — a snapshot only makes sense overlaid on a simulation
    rebuilt from the same spec. *)
val snapshot : t -> string option

(** Overlay a {!snapshot} onto a freshly {!init}ed simulation of the
    same spec.  @raise Prelude.Codec.Error on malformed or mismatched
    blobs. *)
val restore : t -> string -> unit

(** Recompute expected ledger usage from the running-task registry and
    compare against the cluster's actual ledgers, dimension by
    dimension.  [Error msg] names the first mismatch; run after
    recovery to catch a restore that drifted from the journaled
    history. *)
val ledger_check : t -> (unit, string) Stdlib.result
