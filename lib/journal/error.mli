(** Structured journal errors (docs/JOURNAL.md).

    Every failure mode of opening, scanning, or replaying a journal is
    one of these constructors — the journal never partially loads a
    damaged file silently.  A torn tail is not among them: it is the
    expected signature of a crash mid-append, so [Source.load] reports
    it in its result and recovery (alone) truncates it away; every
    error here fails closed. *)

type t =
  | Missing of { path : string }
  | Empty of { path : string }
  | Bad_magic of { path : string }
  | Bad_version of { path : string; version : int }
  | Truncated_header of { path : string }
      (** the fixed preamble or the spec header record is incomplete *)
  | Corrupt_record of { path : string; seq : int; offset : int; reason : string }
      (** a complete frame whose checksum or structure is wrong —
          corruption, not a crash artefact; never truncated away *)
  | Duplicate_seq of { path : string; seq : int; offset : int }
  | Divergence of { seq : int; detail : string }
      (** deterministic replay re-derived a record that differs from the
          stored bytes *)
  | Io of { path : string; op : string; error : Unix.error }
      (** a write-side syscall failed (ENOSPC, EIO, a short write, a
          failed fsync — real or injected via [Failpt], docs/FAILPOINTS.md).
          Retryable: {!Sink} has already truncated the file back to its
          last durable frame boundary and kept the unsynced frames
          buffered, so the next {!Sink.barrier} retries them in order *)
  | State of string  (** journal-directory misuse (see {!Sink}/{!Service}) *)

exception Journal_error of t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Raise as {!Journal_error}. *)
val raise_ : t -> 'a
