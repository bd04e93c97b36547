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

(** [place cluster ~tg ~machine ~shared] charges [machine] for one task
    of [tg] (a server's ledger for a server group, a switch's for a
    network group, see {!Cluster.place_network_task} for [shared]) and
    returns the placement to report.
    @raise Invalid_argument if the task does not fit or the machine is
    of the wrong kind. *)
let place cluster ~(tg : Hire.Poly_req.task_group) ~machine ~shared =
  let charged =
    match tg.kind with
    | Hire.Poly_req.Server_tg ->
        Cluster.place_server_task cluster ~server:machine ~demand:tg.demand;
        None
    | Hire.Poly_req.Network_tg _ ->
        Some (Cluster.place_network_task cluster ~switch:machine ~tg ~shared)
  in
  { tg; machine; shared; charged }

(** Simulated decision time of a flow-based round (HIRE, CoCo++), in
    seconds: the paper sets it "as a function of flow network
    statistics" (§6.2), here linear in the network's nodes and arcs.  A
    round that builds no network thinks for [idle_think]. *)
let idle_think = 0.0005

let flow_think ~nodes ~arcs = idle_think +. (3e-7 *. float_of_int (nodes + arcs))

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
