(** Switch-resource ledger with non-linear sharing ([nol], §3.1/§5.1).

    Each INC switch tracks its remaining resources, the set of supported
    INC services (heterogeneity), and per-service instance counts.  A
    service's demand splits into a *per-switch registration* part —
    charged only when the first instance of that service lands on the
    switch and refunded when the last one leaves (e.g. shared RMT stages
    in NetCache) — and a *per-instance* part charged for every instance
    (e.g. tenant-specific SRAM entries).

    This implements the paper's sharing-degree semantics: on sharable
    dimensions, co-located tenants of the same service divide the shared
    registration among themselves. *)

module Vec = Prelude.Vec

type t

(** [create ~topo ~capacity ~supported] sets up ledger entries for every
    switch of the topology.  [supported id] lists the INC service names
    switch [id] can host (heterogeneity configuration). *)
val create :
  topo:Topology.Fat_tree.t -> capacity:Vec.t -> supported:(int -> string list) -> t

val capacity : t -> Vec.t

(** Remaining resources of a switch (a copy). *)
val available : t -> int -> Vec.t

(** [live_available t switch] is the switch's remaining resources and
    [live_capacity t] the per-switch capacity: the ledger's own vectors,
    not copies, as {!iter_supporting} passes them.  Callers must neither
    mutate nor keep them.  The flow network prices Mn→K arcs through
    them. *)
val live_available : t -> int -> Vec.t

val live_capacity : t -> Vec.t

(** [supports] iff the switch is alive {e and} capable of the service;
    every placement predicate ({!can_place}, the flow-network arcs, the
    baselines' feasibility checks) routes through it, so marking a
    switch dead masks it everywhere. *)
val supports : t -> switch:int -> service:string -> bool

(** Fault injection: liveness flag of a switch (default alive). *)
val is_alive : t -> int -> bool

val set_alive : t -> int -> bool -> unit
val active_services : t -> int -> string list

(** Number of distinct INC services currently running on the switch:
    [List.length (active_services t switch)], from a counter. *)
val n_active : t -> int -> int

(** Number of services the switch is capable of: the static capability
    set, {e not} masked by liveness, so hardware inventories stay stable
    under fault injection. *)
val n_supported : t -> int -> int

(** Number of instances of one service on the switch. *)
val instances : t -> switch:int -> service:string -> int

(** The demand a new instance would actually consume on this switch:
    per-instance demand plus, if the service is not yet registered there,
    its per-switch registration ([nol] — the first tenant pays for the
    shared part). *)
val effective_demand :
  t -> switch:int -> service:string -> per_switch:Vec.t -> per_instance:Vec.t -> Vec.t

(** [can_place] iff the switch supports the service and the effective
    demand fits the remaining resources. *)
val can_place :
  t -> switch:int -> service:string -> per_switch:Vec.t -> per_instance:Vec.t -> bool

(** Charge the switch for one instance.
    @raise Invalid_argument when [can_place] is false. *)
val place :
  t -> switch:int -> service:string -> per_switch:Vec.t -> per_instance:Vec.t -> unit

(** Release one instance; refunds the registration with the last one.
    @raise Invalid_argument if no such instance is recorded, or if the
    refund would push the ledger above capacity (double release). *)
val release : t -> switch:int -> service:string -> per_instance:Vec.t -> unit

(** Sum of used resources across all switches, per dimension. *)
val total_used : t -> Vec.t

val switch_ids : t -> int array

(** [iter_supporting t ~service f] calls [f switch ~avail ~capacity
    ~active ~n_active ~n_supported] for every switch that {!supports}
    [service], in {!switch_ids} order.  [avail] is the switch's
    remaining resources and [capacity] the per-switch capacity — the
    ledger's own vectors, not copies, so [f] must neither mutate nor
    keep them, and must not change the ledger.  [active] is
    [instances t ~switch ~service > 0]; [n_active] and [n_supported]
    are {!n_active} and {!n_supported}.  The pass walks the array of
    the switches capable of [service], built on the service's first
    call and kept (the capability sets are static), and reads only the
    alive ones' states: no per-switch table lookup and no allocation
    after that first call. *)
val iter_supporting :
  t ->
  service:string ->
  (int ->
  avail:Vec.t ->
  capacity:Vec.t ->
  active:bool ->
  n_active:int ->
  n_supported:int ->
  unit) ->
  unit

(** Journal-checkpoint serialization (docs/JOURNAL.md) of the {e
    dynamic} ledger state only: availability vectors, liveness flags,
    instance counts and per-switch registrations.  The static capability
    set and capacity are reproduced by rebuilding the ledger from its
    seed.  Encoding is canonical — the same state always yields the same
    bytes.  [decode_state] restores in place and raises
    {!Prelude.Codec.Error} when the snapshot does not match the ledger's
    switch set or dimensionality. *)
val encode_state : t -> Prelude.Codec.Enc.t -> unit

val decode_state : t -> Prelude.Codec.Dec.t -> unit
