(** Append side of the write-ahead journal.

    File layout: an 8-byte magic, a little-endian u32 format version,
    one framed header payload (the opaque experiment spec the recovery
    side rebuilds the world from), then framed records whose payloads
    carry their own sequence number — see {!Frame}.

    Appends are buffered; {!commit} marks a durability point.  With
    [fsync_interval_s = 0.0] (the default) every commit writes the
    buffered frames and fsyncs before returning.  A positive interval
    enables {e group commit}: a commit inside the window defers the
    fsync so that one device sync covers every round-commit that landed
    in the window — on crash, at most the last window of committed
    records is lost, and deterministic replay re-derives them (see
    docs/JOURNAL.md).  {!barrier} forces the deferred sync, and is
    called by {!Sim.Service} before a checkpoint so a checkpoint's
    [upto_seq] only ever covers durable records.  An injected crash
    (the [journal.crash] failpoint, docs/FAILPOINTS.md) flushes whole
    buffered frames before writing the torn prefix, so the tear lands
    exactly where a real kill would leave it.

    {2 I/O failures}

    A sync is failure-atomic.  Frames stay buffered until the write
    {e and} the fsync both return; on any failure — ENOSPC, EIO, a
    short write, a failed fsync, real or injected through the
    [journal.write]/[journal.fsync] failpoints (docs/FAILPOINTS.md) —
    the file is truncated back to the last durable frame boundary,
    the frames are kept, and {!Error.Io} is raised.
    Nothing is ever acknowledged off the back of a failed fsync, and a
    later {!barrier} retries the whole buffer in order, so a healed
    journal is byte-identical to one that never failed. *)

type t

(** Raised from {!append} when the [journal.crash] failpoint fires with
    [crash(tear)]: [tear] bytes of the frame reached the file and the
    sink is abandoned, as a [kill -9] mid-write would leave it.  Carries
    the sequence number of the record whose append "died".  Counting
    appends from a fresh journal, [journal.crash=N*off->crash(5)] kills
    the append of record [N]. *)
exception Crashed of int

val magic : string
val version : int

(** [create ~path ~header ()] starts a fresh journal.  Raises
    {!Error.Journal_error} [State] if [path] already exists — an
    existing journal must be recovered, never silently overwritten.
    [fsync_interval_s] is the group-commit window (default [0.0]:
    strict fsync-per-commit). *)
val create : ?fsync_interval_s:float -> path:string -> header:string -> unit -> t

(** [open_append ~path ~valid_end ~next_seq ()] reopens a scanned
    journal for appending: the file is truncated to [valid_end]
    (cutting a torn tail) and subsequent records continue at
    [next_seq]. *)
val open_append :
  ?fsync_interval_s:float -> path:string -> valid_end:int -> next_seq:int -> unit -> t

(** [append t body] frames and buffers one record, returning its
    sequence number.  Not yet durable — call {!commit}.  Raises
    {!Crashed} when the [journal.crash] failpoint fires. *)
val append : t -> string -> int

(** Durability point: fsync now, or — inside a group-commit window —
    defer the fsync to a commit after the window closes (or to
    {!barrier}/{!close}, whichever comes first).  Raises {!Error.Io}
    (retryable, see above) when the sync fails. *)
val commit : t -> unit

(** Make every appended record durable before returning: flushes the
    buffer and fsyncs if anything is deferred.  A no-op when the last
    commit already synced.  Raises {!Error.Io} (retryable) on failure;
    calling {!barrier} again retries the buffered frames. *)
val barrier : t -> unit

val next_seq : t -> int

val close : t -> unit

(**/**)

(** Shared with {!Checkpoint}. *)
val write_all : Unix.file_descr -> string -> unit
