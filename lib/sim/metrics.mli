(** Metric collection for the paper's evaluation (§6.2):

    - {b satisfied INC jobs} — fraction of INC-requesting jobs whose
      network task groups were served with INC (Fig. 8a/8f);
    - {b unallocated INC task groups} — fraction of requested network
      groups that never ran with INC (Fig. 8b/8g);
    - {b switch detours} — extra topology levels needed to cover a job's
      switches beyond its servers (Fig. 8c/8h);
    - {b switch load} — time-weighted per-dimension switch utilization
      (Fig. 8d/8i);
    - {b placement latency} — submission until all tasks of a task group
      are running (Fig. 8e/8j);
    - {b solver wall times} — measured MCMF solve times (Fig. 7). *)

type t

val create : Topology.Fat_tree.t -> t

val on_submit : t -> time:float -> Hire.Poly_req.t -> unit

(** One task of [tg] placed on [machine].  [charged] is the switch-side
    demand actually charged (network groups only), used for load
    accounting. *)
val on_place :
  t -> time:float -> tg:Hire.Poly_req.task_group -> machine:int -> charged:Prelude.Vec.t option -> unit

(** One task finished; [released] mirrors [charged]. *)
val on_task_complete :
  t -> time:float -> tg:Hire.Poly_req.task_group -> released:Prelude.Vec.t option -> unit

(** The group was dropped (flavor decision or fallback). *)
val on_cancel : t -> time:float -> tg:Hire.Poly_req.task_group -> unit

(** {2 Fault injection} *)

(** One running task killed by a node failure; [released] mirrors the
    charged switch demand (load accounting, like {!on_task_complete}). *)
val on_task_kill :
  t -> time:float -> tg:Hire.Poly_req.task_group -> released:Prelude.Vec.t option -> unit

(** [n] killed tasks of [tg] were re-enqueued: the group drops out of
    the satisfied state until they are re-placed; re-satisfaction feeds
    the time-to-reschedule histogram (plus placement latency if the
    group had never been fully placed before). *)
val on_requeue : t -> time:float -> tg:Hire.Poly_req.task_group -> n:int -> unit

(** [n] killed tasks of [tg] exhausted the retry budget: the group is
    cancelled. *)
val on_fault_cancel : t -> time:float -> tg:Hire.Poly_req.task_group -> n:int -> unit

val on_node_fail : t -> time:float -> unit
val on_node_recover : t -> time:float -> downtime_s:float -> unit

(** Record a measured MCMF solve (flow-based schedulers only). *)
val on_solver_sample : t -> wall_s:float -> unit

(** Count a scheduling round; [resilience] (reported by the flow-based
    schedulers) feeds the degraded/fallback/guard
    aggregates. *)
val on_round : ?resilience:Scheduler_intf.round_resilience -> t -> think_s:float -> unit

(** Close the load integrals at simulation end. *)
val finalize : t -> time:float -> unit

(** Aggregated results. *)
type report = {
  jobs_total : int;
  inc_jobs_total : int;  (** jobs that requested INC *)
  inc_jobs_served : int;  (** ... whose chosen INC groups all ran with INC *)
  inc_tgs_total : int;
  inc_tgs_unserved : int;
  tgs_total : int;
  tgs_satisfied : int;
  detour_mean : float;
  span_mean : float;
      (** mean topology levels needed to cover a job's servers and
          switches together (fabric footprint; companion to detours) *)
  detour_samples : int;
  switch_load : Prelude.Vec.t;  (** time-weighted used fraction per dimension *)
  placement_latency : Obs.Histogram.t;
      (** seconds from submission to full placement, satisfied groups
          only; merge across seeds with [Obs.Histogram.merged] *)
  solver_wall : Obs.Histogram.t;  (** measured MCMF solve seconds *)
  rounds : int;
  think_total : float;
  node_fails : int;  (** fault events delivered (servers + switches) *)
  node_recoveries : int;
  tasks_killed : int;  (** running tasks lost to node failures *)
  requeues : int;  (** killed tasks re-enqueued through the scheduler *)
  fault_cancels : int;  (** killed tasks cancelled after max retries *)
  tgs_cancelled : int;  (** task groups ending cancelled (any cause) *)
  time_to_reschedule : Obs.Histogram.t;
      (** seconds from a fault-driven requeue until the group is fully
          placed again *)
  node_downtime : Obs.Histogram.t;  (** per-recovery outage seconds *)
  degraded_rounds : int;
      (** rounds applied from a budget-truncated solve or the greedy
          placer (docs/RESILIENCE.md) *)
  fallback_rounds : int;  (** rounds that advanced past the primary backend *)
  fallback_depth_max : int;  (** deepest chain rung ever applied *)
  guard_trips : int;  (** solutions quarantined by the invariant guard *)
  salvaged_tasks : int;  (** tasks placed by degraded rounds *)
}

val report : t -> report

val inc_satisfaction_ratio : report -> float
val inc_tg_unserved_ratio : report -> float
val pp_report : Format.formatter -> report -> unit

(** Journal-checkpoint serialization (docs/JOURNAL.md): all accumulated
    state — per-group and per-job records, the four histograms
    (bit-exact through {!Obs.Histogram.to_raw}), the switch-load
    integral, and every counter — so a restored collector produces the
    same [report] as the uninterrupted run.  [restore] replaces the
    collector's contents in place and raises {!Prelude.Codec.Error} on
    malformed blobs. *)
val snapshot : t -> string

val restore : t -> string -> unit
