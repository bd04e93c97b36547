(** Write-ahead-log records of the simulator's externally visible
    scheduling events (docs/JOURNAL.md).

    One record per observable decision or state transition: job
    submissions, scheduling rounds with their placements, round commits
    (the fsync points), task completions, and the fault-injection
    events.  Recovery re-executes the deterministic simulator and
    validates each re-derived record byte-for-byte against the stored
    log, so the encoding is canonical: encoding the same record always
    yields the same bytes. *)

type record =
  | Submit of { time : float; job_id : int }  (** job arrival handed to the scheduler *)
  | Resubmit of { time : float; job_id : int; tg_ids : int list }
      (** delayed fault-retry submission of the listed groups ([job_id]
          is the synthetic, negative clone id) *)
  | Round of {
      time : float;
      round : int;  (** 1-based round number *)
      placements : (int * int) list;  (** (tg_id, machine) in application order *)
      cancelled : int list;  (** tg_ids dropped by flavor decisions *)
      think : float;  (** simulated decision seconds *)
    }
      (** a scheduling round's decision, journaled {e before} the
          placements are applied to the running-task registry *)
  | Commit of { round : int }
      (** round [round] fully applied; the journal sink fsyncs here *)
  | Complete of { time : float; token : int; tg_id : int; machine : int }
      (** a live task finished (no record for completions of tasks
          already killed by a node failure) *)
  | Node_fail of { time : float; node : int; killed : (int * int) list }
      (** fault injection; [killed] = (tg_id, lost instances) in kill
          order *)
  | Requeue of { time : float; tg_id : int; lost : int; attempt : int; retry_time : float }
  | Fault_cancel of { time : float; tg_id : int; lost : int }
  | Node_recover of { time : float; node : int; downtime_s : float }
  | Admit of { admit_id : int; client : string; poly : Hire.Poly_req.t }
      (** an externally submitted job accepted by the admission front-end
          (docs/SERVER.md), journaled — and made durable — {e before} the
          acceptance is acknowledged to the client (WAL-before-ack).
          [client] is the submitter's optional idempotency key ([""]
          when absent); [poly.arrival] is a placeholder until the job is
          injected. *)
  | Inject of { time : float; admit_ids : int list }
      (** an admission batch handed to the scheduler: the listed admitted
          jobs enter the event loop as arrivals at simulated time
          [time].  Admitted ids that appear in no [Inject] record are
          the accepted-but-unplaced queue a crashed server recovers. *)

(** [is_input_encoded body] iff the encoded record is an input record
    ([Admit]/[Inject]), read without decoding it.  Input records carry
    external submissions {e into} the simulation; recovery applies them
    instead of validating them against re-execution (every other record
    is an output the replayed simulator must re-derive byte for
    byte). *)
val is_input_encoded : string -> bool

(** Canonical binary encoding of one record. *)
val encode : record -> string

(** Inverse of {!encode}.
    @raise Prelude.Codec.Error on malformed input (including trailing
    bytes). *)
val decode : string -> record

(** Short kind tag (["submit"], ["round"], …) for counters and logs. *)
val kind : record -> string

val pp : Format.formatter -> record -> unit
