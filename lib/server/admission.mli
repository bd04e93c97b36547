(** The admission engine (docs/SERVER.md): validated external job
    submissions, journaled through the {!Sim.Service} WAL, batched into
    scheduling rounds on a configurable cadence.

    The durability contract is {b WAL-before-ack}: {!submit} appends a
    {!Sim.Wal.Admit} record (buffered), and the caller must run
    {!ack_barrier} — a real fsync, group-commit window notwithstanding —
    before acknowledging any admission to a client.  An acked admission
    therefore survives any crash: {!recover} rebuilds the engine from
    the WAL alone, and admissions present in no {!Sim.Wal.Inject}
    record come back as the pending queue, byte-identically.

    Batching: pending admissions accumulate until {!flush} (the server
    calls it on a wall-clock cadence, when the batch fills, or on an
    explicit [drain]).  A flush journals one [Inject] record, hands the
    batch to the simulator as arrivals at a common simulated time
    spaced [round_interval] from the previous batch, and runs the event
    loop to quiescence — one admission batch is one scheduling
    problem, the paper's round model (§5).

    {2 Degraded mode}

    Retryable storage failures ({!Journal.Error.Io}: ENOSPC, EIO,
    short writes, failed fsyncs — real or injected through the
    failpoints of docs/FAILPOINTS.md) never kill the engine.  Instead
    it enters a read-only {e degraded} mode: {!submit} sheds new work
    with a ["degraded"] rejection (nothing is journaled), status and
    stats stay live, and {!probe} retries the disk under jittered
    exponential backoff ([0.05 s] doubling to a [5 s] cap).  The sink
    keeps every unsynced frame buffered across failures, so the first
    successful probe makes all owed admissions durable and the healed
    WAL is byte-identical to a run that never failed.  A submission
    whose {!ack_barrier} failed was answered with a retriable
    ["degraded"] error but remains owed — clients that resubmit with
    the same idempotency key converge on its admission id. *)

type config = {
  round_interval : float;
      (** simulated seconds between consecutive injection batches *)
  max_batch : int;  (** pending count that triggers an early flush *)
  max_pending : int;
      (** backpressure bound: submissions beyond this are rejected with
          [queue_full] instead of being journaled *)
  checkpoint_every : int;  (** {!Sim.Service} checkpoint cadence; 0 disables *)
  fsync_interval_s : float;  (** group-commit window of the sink *)
}

val default_config : config

type t

val service : t -> Sim.Service.t
val spec : t -> Harness.Experiment.spec
val config : t -> config

(** [start ~dir ~config spec] opens a fresh journaled world under
    [dir] (the usual [Sim.Service] layout).  The spec's workload horizon
    is irrelevant to serving — use a tiny horizon so the trace itself is
    empty and every job comes through admission. *)
val start : dir:string -> config:config -> Harness.Experiment.spec -> t

type recovered = {
  engine : t;
  replayed : int;  (** WAL records validated by re-execution *)
  pending_recovered : int;  (** acked-but-unplaced admissions restored *)
}

(** Rebuild a crashed server from [dir]: world from the WAL header,
    replay by re-execution with input records re-applied at their
    recorded positions, admission tables from a full-log scan.  The
    engine continues exactly where the crashed one stood. *)
val recover : dir:string -> config:config -> unit -> recovered

type admit_result =
  | Admitted of { admit_id : int; duplicate : bool }
      (** [duplicate] when an idempotency key matched a previous
          admission — nothing new was journaled *)
  | Rejected of string  (** [queue_full], validation failure, … *)

(** Validate, translate (CompReq → PolyReq), and journal one
    submission.  Buffered: the caller owes an {!ack_barrier} before
    acknowledging.  Never raises on bad input — rejection is a value.
    While {!degraded}, every submission (idempotent resubmissions
    included: their originals may not be durable yet) is shed with
    [Rejected "degraded"] and nothing reaches the journal. *)
val submit : t -> Protocol.job_spec -> admit_result

(** Durability barrier over everything submitted so far (WAL-before-ack).
    Amortize it over a batch of acks, not per submission.  [false]
    means the sync failed and the engine is now {!degraded}: {b nothing
    from this round may be acknowledged as admitted} — answer those
    submissions with the retriable ["degraded"] error instead.  The
    frames stay buffered and become durable at the first successful
    {!probe}. *)
val ack_barrier : t -> bool

(** True while the engine is shedding submissions after a storage
    failure. *)
val degraded : t -> bool

(** Human-readable description of the last absorbed storage failure
    ([""] if none yet). *)
val last_error : t -> string

(** Wall deadline of the next backoff-gated disk probe, while
    degraded. *)
val probe_at : t -> float option

(** Attempt to leave degraded mode: no-op before the backoff deadline
    (unless [~force]), otherwise retry the barrier — the sink rewrites
    its whole buffer, so success makes every owed admission durable —
    and finish any batch the failure interrupted mid-drain.  Returns
    [true] when the engine is healthy on return. *)
val probe : ?force:bool -> t -> bool

val pending : t -> int

(** True when the pending batch has reached [max_batch]. *)
val batch_due : t -> bool

(** Inject every pending admission as one batch and run the simulator
    to quiescence.  Returns the batch size (0 = nothing pending, and
    nothing is journaled). *)
val flush : t -> int

(** Best-effort progress of one admission, rebuilt across crashes from
    the WAL scan (counters may lag for history emitted mid-recovery). *)
type status = {
  phase : string;  (** ["queued"] | ["injected"] | ["running"] | ["done"] *)
  injected_at : float option;  (** simulated injection time *)
  placements : int;  (** placement events observed for its task groups *)
  completions : int;  (** task completions observed *)
}

val status : t -> int -> status option

type stats = {
  admitted : int;
  rejected : int;
  pending_now : int;
  injected : int;  (** admissions handed to the scheduler *)
  batches : int;
  wal_records : int;
  sim_now : float;
  degraded_now : bool;  (** shedding submissions right now *)
  degraded_rejects : int;  (** submissions shed while degraded *)
  io_errors : int;  (** retryable storage failures absorbed *)
}

val stats : t -> stats

(** Flush any pending batch, close the journal, finalize metrics.
    A degraded engine gets one forced {!probe} first; if the disk is
    still failing this raises {!Journal.Error.Journal_error} [Io] —
    the WAL keeps everything up to the durable boundary. *)
val finish : t -> Sim.Simulator.result
