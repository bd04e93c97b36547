(** Mutable cluster state: the fat-tree topology plus the resource
    ledgers for servers and (via {!Hire.Sharing}) for INC switches.
    Server ledgers and node liveness are arrays indexed by node id, so
    every read the schedulers make of them is an array read.

    Switch INC capabilities implement the paper's two setups (§6.2):
    homogeneous — every switch supports every CompStore service — and
    heterogeneous — two randomly chosen services per switch. *)

module Vec = Prelude.Vec

type inc_setup = Homogeneous | Heterogeneous

val inc_setup_to_string : inc_setup -> string

type t

(** [create ~k ~setup ~services rng] builds a [k]-ary fat-tree cluster
    with default server/switch capacities.  [services] is the CompStore
    service-name universe; [rng] drives the heterogeneous capability
    assignment.

    [inc_capable_fraction] bounds which switches offer INC at all.  The
    paper's testbed (k = 26) has 5.2 servers per switch; a smaller
    fat-tree has proportionally more switches per server, which would
    dilute INC contention.  The default fraction [k/26] keeps the
    servers-per-INC-switch ratio of the paper at any scale. *)
val create :
  ?server_capacity:Vec.t ->
  ?switch_capacity:Vec.t ->
  ?inc_capable_fraction:float ->
  ?topology:Topology.Fat_tree.t ->
  k:int ->
  setup:inc_setup ->
  services:string list ->
  Prelude.Rng.t ->
  t
(** [topology] overrides the default fat-tree (e.g.
    {!Topology.Fat_tree.create_leaf_spine}); [k] is then ignored. *)

(** Switches offering at least one INC service. *)
val n_inc_capable : t -> int

val topo : t -> Topology.Fat_tree.t
val sharing : t -> Hire.Sharing.t
val n_servers : t -> int
val n_switches : t -> int

(** The read view handed to schedulers (includes node liveness).  Its
    [server_available] is the server's live ledger, not a copy, and
    raises [Invalid_argument] for a node that is not a server; its
    [server_capacity] is the capacity vector itself.  HIRE and CoCo++
    take a view per scheduler, and so do the baselines' feasibility
    checks and K8++'s scoring, which read every ledger through it. *)
val view : t -> Hire.View.t

(** {2 Liveness (fault injection)}

    Failing a node never touches the ledgers: the simulator kills and
    releases the node's running tasks before calling {!fail_node}, so
    total capacity is conserved across fail/recover cycles. *)

(** [is_alive t node] — servers and switches; initially every node is
    alive.  [node] must be a node id of the topology. *)
val is_alive : t -> int -> bool

(** [fail_node t ~time node] marks a node down ([time] is remembered for
    downtime accounting) and masks it from {!Hire.Sharing} placement
    checks when it is a switch.
    @raise Invalid_argument if the node is already down. *)
val fail_node : t -> time:float -> int -> unit

(** [recover_node t node] brings a node back and returns the time it
    failed.
    @raise Invalid_argument if the node is up. *)
val recover_node : t -> int -> float

(** A copy of the server's ledger, for callers that keep it (the
    simulator's load accounting, tests).  A scan that only reads it
    uses {!view} instead; lib/schedulers must not call this or
    {!server_capacity} ([make lint-compare]).
    @raise Invalid_argument if the node is not a server. *)
val server_available : t -> int -> Vec.t

(** A copy of the per-server capacity. *)
val server_capacity : t -> Vec.t

(** [place_server_task t ~server ~demand] charges a server.
    @raise Invalid_argument if the demand does not fit or the server is
    down. *)
val place_server_task : t -> server:int -> demand:Vec.t -> unit

(** Refund one task's demand.  Releasing on a dead server is legal (the
    kill path does exactly that).
    @raise Invalid_argument if the refund would push the ledger above
    capacity (double release / over-release). *)
val release_server_task : t -> server:int -> demand:Vec.t -> unit

(** [place_network_task t ~switch ~tg ~shared] charges a switch for one
    instance of the group's service.  With [shared = false] (retrofitted
    baselines) the registration part is folded into the per-instance
    demand, so co-located instances gain nothing ([nol] ignored).
    Returns the charged demand vector (needed for the release and for
    load accounting).
    @raise Invalid_argument if it does not fit or [tg] is not a network
    group. *)
val place_network_task :
  t -> switch:int -> tg:Hire.Poly_req.task_group -> shared:bool -> Vec.t

val release_network_task :
  t -> switch:int -> tg:Hire.Poly_req.task_group -> shared:bool -> unit

(** Sum of used switch resources per dimension. *)
val switch_used_total : t -> Vec.t

(** Journal-checkpoint serialization (docs/JOURNAL.md) of the dynamic
    state only: server ledgers (in [Fat_tree.servers] order), the dead
    nodes with their failure times (by ascending id), and the
    switch-sharing ledgers.  The
    static parts (topology, capacities, INC capability map) must come
    from rebuilding the cluster with the same seed; [restore] then
    overlays the snapshot in place and marks the dirty set structural so
    the next flow-network build starts clean.  Raises
    {!Prelude.Codec.Error} when the snapshot does not match the
    cluster's shape, or lists a dead node twice or out of range. *)
val snapshot : t -> string

val restore : t -> string -> unit
