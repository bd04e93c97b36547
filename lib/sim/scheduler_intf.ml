(** The scheduler interface the simulator drives.

    Schedulers are first-class records so the simulation engine does not
    depend on any concrete policy.  A scheduler {e charges the cluster
    ledgers itself} while deciding (so intra-round feasibility is exact)
    and reports the placements; the simulator schedules the matching
    completions, releases resources when tasks finish, and feeds the
    metrics. *)

type placement = {
  tg : Hire.Poly_req.task_group;
  machine : int;  (** server id for server groups, switch id for network groups *)
  shared : bool;  (** whether switch placement may exploit INC sharing *)
  charged : Prelude.Vec.t option;
      (** switch-side demand charged (network groups only) *)
}

(** Per-round solver-resilience report (docs/RESILIENCE.md).  Only
    the flow-based HIRE schedulers produce it, on every round. *)
type round_resilience = Hire.Hire_scheduler.round_resilience

type round_result = {
  placements : placement list;
  cancelled : Hire.Poly_req.task_group list;
  think : float;  (** simulated decision time of this round, seconds *)
  solver_wall : float option;  (** measured MCMF wall time (flow-based only) *)
  resilience : round_resilience option;
      (** [None] for schedulers without a fallback chain *)
}

(** Optional checkpoint capability (docs/JOURNAL.md).  A scheduler that
    can serialize its internal decision state offers it here so journal
    checkpoints capture mid-run state; schedulers without it (the
    queue-based baselines, whose per-round decisions are cheap to replay
    from the WAL alone) recover by genesis replay instead.  [restore]
    must leave a freshly created scheduler observably identical to the
    snapshotted one and raises {!Prelude.Codec.Error} on malformed
    blobs. *)
type persist = { snapshot : unit -> string; restore : string -> unit }

type t = {
  name : string;
  submit : time:float -> Hire.Poly_req.t -> unit;
  round : time:float -> round_result;
  pending : unit -> bool;  (** unfinished placement work remains *)
  on_task_complete : time:float -> tg:Hire.Poly_req.task_group -> machine:int -> unit;
      (** also invoked for tasks killed by a node failure (the machine
          is the failed node) so schedulers drop per-task state *)
  on_node_event : time:float -> node:int -> up:bool -> unit;
      (** fault injection: [node] failed ([up = false]) or recovered
          ([up = true]).  Called after the cluster liveness flip and
          after the killed tasks' [on_task_complete] calls; schedulers
          with machine-local state (e.g. Sparrow's stub queues) must
          flush it here. *)
  drop_task_group : time:float -> tg_id:int -> unit;
      (** fault injection: the simulator gave up on [tg_id] (retry
          budget exhausted); the scheduler must drop the group's
          still-pending instances so no further placements are attempted
          for it. *)
  persist : persist option;
      (** checkpoint capability; [None] = recover by genesis replay *)
}
