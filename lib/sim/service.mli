(** Journaled scheduler service (docs/JOURNAL.md): the simulator event
    loop with a write-ahead log underneath.

    Protocol, per event: the {!Wal} records the event gives rise to are
    appended (buffered, not yet durable) {e before} their effects
    become externally visible; every {!Wal.Commit} — one per scheduling
    round — is a durability point, group-committed within a bounded
    window ([fsync_interval_s], default 20ms; [0.0] restores strict
    fsync-per-round — see {!Journal.Sink}); and every
    [checkpoint_every]-th round a full {!Simulator.snapshot} is written
    as a generation-numbered checkpoint behind a {!Journal.Sink.barrier},
    so a checkpoint never subsumes records that could still be lost;
    after each one, all but the newest two generations are deleted.

    Recovery ({!recover}) rebuilds a fresh world from the spec blob
    stored in the WAL header, overlays the newest usable checkpoint
    (when the scheduler offers {!Scheduler_intf.persist}), truncates a
    torn tail, replays the remaining records by deterministic
    re-execution ({!Recovery.replay}), cross-checks the landed ledgers
    against the running-task registry, and returns a service ready to
    continue — the continuation is byte-identical to the uninterrupted
    run. *)

type t

val sim : t -> Simulator.t

(** Tap invoked — in order — for every record the live event loop
    appends (not for {!append}ed input records, whose writer already
    knows them, nor for records validated during recovery replay; pass
    [observe] to {!recover} for those).  Replaces any previous
    observer; the admission front-end (docs/SERVER.md) tracks per-job
    progress through it. *)
val set_observer : t -> (Wal.record -> unit) -> unit

(** Next WAL sequence number — the total records appended so far. *)
val wal_seq : t -> int

(** Append one input record ({!Wal.Admit}/{!Wal.Inject}) through the
    journal sink, in stream order with the simulator's own records.
    Buffered, not yet durable: call {!ack_barrier} before acknowledging
    the admission to a client (WAL-before-ack, docs/SERVER.md). *)
val append : t -> Wal.record -> unit

(** Durability barrier: every record appended so far — input records
    included — is on disk when this returns, group-commit window
    notwithstanding.  The admission server calls it between accepting
    submissions and acknowledging them.  Raises {!Journal.Error.Io}
    (retryable — the frames stay buffered, see {!Journal.Sink}) when
    storage fails; a failed {!Journal.Checkpoint.write} is instead
    swallowed and the checkpoint skipped, because checkpoints only
    accelerate recovery. *)
val ack_barrier : t -> unit

(** [start ~dir ~checkpoint_every ~header sim] begins journaling a fresh
    simulation into [dir] (created if missing).  [header] is the opaque
    spec blob recovery hands back to [rebuild]; [checkpoint_every] <= 0
    (the default) disables checkpoints.
    @raise Journal.Error.Journal_error [State] if [dir] already holds a
    journal. *)
val start :
  dir:string ->
  ?checkpoint_every:int ->
  ?fsync_interval_s:float ->
  header:string ->
  Simulator.t ->
  t

type recovered = {
  service : t;
  replayed : int;  (** WAL records validated by re-execution *)
  from_checkpoint : int option;
      (** sequence the overlaid checkpoint subsumed, when one was used *)
}

(** [recover ~dir ~rebuild ()] resumes a crashed journaled run.
    [rebuild] must reconstruct the {e same} simulation from the spec
    blob that [start] wrote (same seeds, same config) — recovery
    validates rather than trusts it, and fails closed with [Divergence]
    on any mismatch.

    [on_input] applies input records ({!Wal.Admit}/{!Wal.Inject}) to the
    rebuilt simulation at their recorded stream positions; without it, a
    journal holding input records fails closed (see {!Recovery.replay}).
    [observe] is called once per loaded record — input records and
    checkpoint-subsumed history included — before replay, so an
    admission front-end can rebuild its tables (docs/SERVER.md). *)
val recover :
  dir:string ->
  ?checkpoint_every:int ->
  ?fsync_interval_s:float ->
  ?on_input:(Simulator.t -> Wal.record -> unit) ->
  ?observe:(Wal.record -> unit) ->
  rebuild:(string -> Simulator.t) ->
  unit ->
  recovered

(** Process one event under the journal (see {!Simulator.step}); returns
    [false] once the event queue is empty.  Interleave with {!append}
    and {!Simulator.inject} to drive the loop from external input. *)
val step : t -> bool

(** Final fsync, close the journal, finalize metrics.  [run] is exactly
    {!step} to exhaustion + [finish]. *)
val finish : t -> Simulator.result

(** Run the simulation to completion under the journal, final fsync
    included.  A fired [journal.crash] failpoint propagates as
    {!Journal.Sink.Crashed} with the log torn exactly as a real crash
    would leave it. *)
val run : t -> Simulator.result
