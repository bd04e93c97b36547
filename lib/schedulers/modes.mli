(** Job-alternative handling for retrofitted baselines (§6.1).

    The baselines cannot schedule interchangeable alternatives inside
    one scheduling pass, so each INC-enabled job is split beforehand
    into two variants:

    - {b Concurrent}: both the server-only and the strict-INC variant are
      queued simultaneously; the first allocation that is specific to one
      variant withdraws the other.  An optional revert timer (Yarn++ uses
      1 min) falls back to the server variant if a decided INC variant
      starves.
    - {b Timeout}: only the INC variant is queued; if it is not fully
      served within 10% of the job's duration, it is withdrawn and the
      server fallback variant is submitted.

    Task groups of composites without alternatives are "common": queued
    once and unaffected by variant decisions. *)

type mode = Concurrent | Timeout

val mode_to_string : mode -> string

type tg_rt = {
  tg : Hire.Poly_req.task_group;
  mutable remaining : int;
  mutable placed_on : int list;
      (** machines placed on, newest first.  Only {!note_placement}
          adds to it, and nothing removes from it. *)
  switch_demand : Prelude.Vec.t option;
      (** the demand one instance of a network group puts on a switch
          under baseline (unshared) accounting: the per-switch
          registration plus the per-instance demand.  Made once, with
          the entry; [None] for a server group. *)
}

type decision = Undecided | Inc | Server

type mjob = {
  poly : Hire.Poly_req.t;
  arrival : float;
  common : tg_rt list;
  server_only : tg_rt list;
  inc_only : tg_rt list;
  deadline : float;  (** timeout-mode fallback time *)
  mutable decision : decision;
  mutable decided_at : float;
  mutable tors : int list;
      (** Yarn++'s preferred racks: the sorted, unique ToRs of the
          placements already folded in by [Policy_util.preferred_tors] *)
  mutable unread : int list;
      (** machines placed on since [tors] was last brought up to date,
          newest first.  Only {!note_placement} adds to it. *)
}

type t

val create : ?revert_after:float -> mode -> t
val mode : t -> mode
val submit : t -> time:float -> Hire.Poly_req.t -> unit

(** Jobs with queued work, oldest first. *)
val jobs : t -> mjob list

(** The task groups a policy may currently place for this job. *)
val active_tgs : t -> mjob -> tg_rt list

(** Process timers (timeout fallbacks, starvation reverts); returns
    groups cancelled by those transitions. *)
val tick : t -> time:float -> Hire.Poly_req.task_group list

(** Record a placement; in concurrent mode the first variant-specific
    placement decides the job.  Returns groups cancelled by the
    decision. *)
val note_placement :
  t -> time:float -> mjob -> tg_rt -> machine:int -> Hire.Poly_req.task_group list

(** Fault path: zero the remaining count of every runtime entry for
    [tg_id] (the simulator cancelled the group after exhausting its
    retry budget) so no further placements are attempted. *)
val drop_tg : t -> tg_id:int -> unit

val pending : t -> bool

(** Drop fully-served jobs from the queue. *)
val cleanup : t -> unit
