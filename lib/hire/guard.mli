(** Runtime invariant guard for live scheduling rounds
    (docs/RESILIENCE.md).

    [Flow.Verify.check] re-derives flow-level properties from first
    principles but historically ran only in the test suite; this module
    brings it — plus a capacity-ledger cross-check against the cluster
    view — into the scheduling loop.  {!Hire_scheduler} samples rounds
    (every [guard_every]-th solve) and runs both checks on the live
    solution {e before} any cluster state is mutated; a violation
    quarantines the solution and the round is re-run on the next backend
    of the fallback chain.

    The violation taxonomy (documented in docs/RESILIENCE.md):

    - flow-level, from {!Flow.Verify.check}: capacity exceeded, negative
      flow, conservation broken, negative residual cycle;
    - placement-level, from the ledger cross-check: a machine handed
      more than one task in a round, a group given more tasks than it
      has remaining, a server placement that does not fit the server's
      remaining resources, a switch placement rejected by the sharing
      ledger. *)

type violation =
  | Flow_violation of Flow.Verify.violation
      (** the solved flow itself is invalid ({!Flow.Verify.check}) *)
  | Machine_overuse of { machine : int }
      (** more than one task routed to the machine this round (the M→K
          capacity-1 discipline was violated) *)
  | Group_overplace of { tg_id : int; placed : int; remaining : int }
      (** the round places more tasks of the group than remain *)
  | Server_overcommit of { server : int; tg_id : int }
      (** the task's demand does not fit the server's remaining
          resources (or the server is dead) *)
  | Switch_overcommit of { switch : int; tg_id : int; service : string }
      (** the sharing ledger rejects the instance
          ({!Sharing.can_place}) *)

val pp_violation : Format.formatter -> violation -> unit

(** [check_flow g] is {!Flow.Verify.check} wrapped into the guard's
    violation type. *)
val check_flow : Flow.Graph.t -> (unit, violation) result

(** [check_placements view ~params ~placements] cross-checks one round's
    extracted placements (task-group state × machine) against the live
    capacity ledgers, without mutating anything.  [params] selects the
    sharing mode, matching what the flow network priced. *)
val check_placements :
  View.t ->
  params:Cost_model.params ->
  placements:(Pending.tg_state * int) list ->
  (unit, violation) result
