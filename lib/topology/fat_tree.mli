(** K-ary fat-tree data-center topology.

    For even [k], the tree has [k] pods, each with [k/2] top-of-rack (ToR)
    switches and [k/2] aggregation switches; [(k/2)²] core switches; and
    [k/2] servers per ToR, i.e. [k³/4] servers in total.  The paper's
    evaluation uses [k = 26] (4394 servers, 845 switches); the default
    experiments in this repository use smaller [k] for runtime.

    Depth convention follows Fig. 6 of the paper: core switches are at
    depth 0, aggregation at 1, ToR at 2, servers at 3. *)

type kind = Core | Agg | Tor | Server

type node = {
  id : int;
  kind : kind;
  depth : int;  (** 0 core, 1 agg, 2 tor, 3 server *)
  pod : int;  (** -1 for core switches *)
  index : int;  (** index within its group *)
}

type t

(** [create ~k] builds a fat-tree; [k] must be even and >= 2. *)
val create : k:int -> t

(** [create_leaf_spine ~spines ~leafs ~servers_per_leaf] builds a
    two-tier leaf–spine fabric: every leaf connects to every spine, and
    [servers_per_leaf] servers hang off each leaf.  Spines take the
    [Core] role (depth 0) and leafs the [Tor] role (depth 2, each leaf
    being its own pod), so all subtree/LCA/detour queries — and therefore
    the whole scheduling stack — work unchanged on this multi-path
    topology (§6.2 mentions multi-path support). *)
val create_leaf_spine : spines:int -> leafs:int -> servers_per_leaf:int -> t

val k : t -> int
val node_count : t -> int
val node : t -> int -> node
val kind : t -> int -> kind
val depth : t -> int -> int
val is_server : t -> int -> bool
val is_switch : t -> int -> bool

(** All server node ids, in id order.  The array is shared by every
    call and must not be mutated. *)
val servers : t -> int array

(** All switch node ids (core ++ agg ++ tor), in id order.  They are
    the ids [0 .. S-1] of the [S] switches, below every server's id, so
    a switch id indexes an array of length [S].  The array is built
    once by the constructor, shared by every call and must not be
    mutated. *)
val switches : t -> int array

(** ToR switch ids, in id order.  They are consecutive:
    [(tor_switches t).(j) = (tor_switches t).(0) + j]. *)
val tor_switches : t -> int array

(** The ToR switch a server is cabled to. *)
val tor_of_server : t -> int -> int

(** Physical neighbours (both directions): servers↔ToR, ToR↔aggs of the
    pod, aggs↔their cores. *)
val neighbors : t -> int -> int list

(** Upstream neighbours only (towards the core). *)
val parents : t -> int -> int list

(** Downstream neighbours only (towards the servers). *)
val children : t -> int -> int list

(** Servers reachable strictly downward from a node ([node] itself if a
    server).  Cached after first computation. *)
val servers_under : t -> int -> int array

(** [cover_depth t nodes] is the depth of the shallowest subtree covering
    all given nodes: for two distinct nodes, 2 under the same ToR, 1 in
    the same pod, 0 otherwise; for more, the minimum over the pairs; for
    a singleton, the depth of the node itself.  Raises
    [Invalid_argument] on []. *)
val cover_depth : t -> int list -> int

(** Switch-detour metric of the paper (§6.2): number of additional levels
    of switch hierarchy needed to cover servers *and* switches of a job,
    beyond the levels needed to cover the servers alone.  Zero when
    [switches] is empty. *)
val detour : t -> servers:int list -> switches:int list -> int

val pp : Format.formatter -> t -> unit
