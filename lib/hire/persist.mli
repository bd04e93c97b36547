(** Binary codecs ({!Prelude.Codec}) for the HIRE request and
    pending-queue types, used by the journal subsystem
    (docs/JOURNAL.md): the WAL's arrival/retry events carry PolyReqs,
    and checkpoints carry the scheduler's pending jobs.

    Every decoder is the exact inverse of its encoder — floats round
    through their IEEE-754 bits — and raises {!Prelude.Codec.Error} on
    malformed input. *)

val enc_priority : Prelude.Codec.Enc.t -> Workload.Job.priority -> unit
val dec_priority : Prelude.Codec.Dec.t -> Workload.Job.priority
val enc_task_group : Prelude.Codec.Enc.t -> Poly_req.task_group -> unit
val dec_task_group : Prelude.Codec.Dec.t -> Poly_req.task_group
val enc_poly : Prelude.Codec.Enc.t -> Poly_req.t -> unit
val dec_poly : Prelude.Codec.Dec.t -> Poly_req.t

(** Pending job state: the PolyReq plus flavor decisions and per-group
    remaining/placed-on, rebuilt through {!Pending.of_poly} so decoded
    jobs are indistinguishable from live ones. *)
val enc_job : Prelude.Codec.Enc.t -> Pending.job_state -> unit

val dec_job : Prelude.Codec.Dec.t -> Pending.job_state
