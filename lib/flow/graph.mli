(** Mutable flow-network representation with residual arcs.

    Nodes are dense integers [0 .. node_count-1].  Every call to [add_arc]
    creates a forward arc with the given capacity and cost plus its paired
    residual (reverse) arc with capacity 0 and negated cost; the pair
    occupies consecutive ids so [rev a = a lxor 1].  Solvers mutate flow
    in place; [reset_flows] restores the zero flow.

    Supplies follow the usual min-cost-flow convention: positive supply
    means the node injects flow, negative means it absorbs flow.  A
    feasible flow ships all supply to the demand nodes. *)

type t
type arc = int

val create : ?node_hint:int -> ?arc_hint:int -> unit -> t

(** [reserve t ~nodes ~arcs] makes room for [nodes] nodes and [arcs]
    forward arcs in all, so that a build which stays within them grows
    no array.  A no-op when the arena is already that big; it changes
    neither the node and arc counts nor any id. *)
val reserve : t -> nodes:int -> arcs:int -> unit

(** [add_node t] allocates a fresh node and returns its id. *)
val add_node : t -> int

val node_count : t -> int

(** Number of forward arcs (residual pairs are not counted). *)
val arc_count : t -> int

(** [add_arc t ~src ~dst ~cap ~cost] adds a forward arc and its residual
    pair; returns the forward arc id.  [cap] must be non-negative. *)
val add_arc : t -> src:int -> dst:int -> cap:int -> cost:int -> arc

val set_supply : t -> int -> int -> unit
val supply : t -> int -> int
val total_positive_supply : t -> int

val src : t -> arc -> int
val dst : t -> arc -> int
val cost : t -> arc -> int

(** Original capacity of the arc (forward arcs only carry the user's
    capacity; residual arcs start at 0). *)
val capacity : t -> arc -> int

(** Flow currently assigned to a *forward* arc. *)
val flow : t -> arc -> int

(** Remaining capacity of an arc in the residual network. *)
val residual_cap : t -> arc -> int

(** [rev a] is the paired reverse arc. *)
val rev : arc -> arc

(** [push t a amount] sends [amount] units along arc [a] in the residual
    network, updating the pair.
    @raise Invalid_argument if [amount] exceeds the residual capacity. *)
val push : t -> arc -> int -> unit

(** Fault-injection hook: [corrupt_flow t a delta] shifts the recorded
    flow of forward arc [a] by [delta] {e without any validation} —
    residual capacities may go negative and conservation is deliberately
    broken at both endpoints.  Exists solely so the [flow.corrupt]
    failpoint ({!Verify.inject_corruption}) can hand {!Verify.check} a
    corrupted solution; never use it to build flows.
    @raise Invalid_argument if [a] is not a forward arc. *)
val corrupt_flow : t -> arc -> int -> unit

(** [copy t] is a deep, fully private snapshot of [t]: identical node
    and arc ids, supplies, costs, capacities and current flow, but no
    shared backing arrays — mutating one side (including solving, which
    moves residual capacities) never shows through to the other, so two
    solvers can be run on the same instance and compared. *)
val copy : t -> t

(** {2 In-place patching}

    Primitives used by the incremental network builder
    (lib/hire/flow_network.ml) to maintain a persistent graph across
    scheduling rounds without reallocating.  None of them allocate. *)

(** True iff the graph currently has at least one forward arc with a
    strictly negative cost.  Maintained exactly by {!add_arc},
    {!set_cost}, {!clear} and {!release}; solvers use it to skip the
    Bellman-Ford/SPFA potential bootstrap when all costs are
    non-negative. *)
val has_negative_cost : t -> bool

(** [set_cost t a c] rewrites the cost of forward arc [a] to [c] and its
    residual twin to [-c], in place.
    @raise Invalid_argument if [a] is not a live forward arc. *)
val set_cost : t -> arc -> int -> unit

(** Empty the graph, keeping the backing arrays for reuse. *)
val clear : t -> unit

(** A watermark capturing the graph state at a point in time, for
    prefix/suffix reuse: build the long-lived part, [mark], then per
    round add a transient suffix and [release] back to the mark. *)
type mark

val mark : t -> mark

(** [release t mk] truncates the graph back to the state captured by
    [mk]: node/arc counts, adjacency heads, supplies and the
    negative-cost counter are all restored.  Arc attributes (costs,
    capacities) of the surviving prefix are {e not} restored — patch
    costs explicitly with {!set_cost}, and call
    {!reset_flows} to restore prefix capacities consumed by a solve.
    @raise Invalid_argument if the graph is behind the mark. *)
val release : t -> mark -> unit

(** [iter_out t v f] applies [f] to every residual arc (forward and
    reverse) leaving [v], in {e decreasing arc id}.  The set is every
    arc whose source is [v], created since [v] was added (as restored
    by {!release}).  The order is a contract: solvers break ties
    between equally cheap arcs by scan order, so their flows depend on
    it. *)
val iter_out : t -> int -> (arc -> unit) -> unit

(** {2 Raw adjacency (internal to lib/flow)}

    Closure-free read access for the SSP hot path (lib/flow/mcmf.ml);
    code outside lib/flow and its tests uses the accessors above.
    Each node has two chains threaded through one [next] array, both
    in decreasing arc id: its forward arcs (even ids), which start at
    [forward_head.(v)], and the residual twins leaving it (odd ids);
    -1 ends a chain.  {!iter_out} is the merge of the two by
    decreasing id.  The arrays are the live backing store, indexed by
    node or arc id: read them only, and only until the next call that
    adds a node or an arc (which may reallocate them).  [cap] holds
    residual capacities. *)
module Raw : sig
  val forward_head : t -> int array
  val next : t -> int array
  val dst : t -> int array
  val cap : t -> int array
  val cost : t -> int array
end

(** [iter_arcs t f] applies [f] to every forward arc. *)
val iter_arcs : t -> (arc -> unit) -> unit

(** Restore every arc to zero flow (capacities back to their original
    values), undoing prior solves and any {!corrupt_flow} in place.  The
    persistent network builder (lib/hire/flow_network.ml) calls it
    before every patched build. *)
val reset_flows : t -> unit

(** Total cost of the current flow: sum over forward arcs of
    [flow * cost]. *)
val flow_cost : t -> int

(** Flow conservation check: for every node, outflow - inflow must equal
    its supply minus any unshipped residue at that node... more precisely,
    [conserves t] verifies outflow(v) - inflow(v) = supply(v) for all
    nodes when the instance has been solved to feasibility, and returns
    the first violating node otherwise. *)
val conserves : t -> (int, int) result

(** Human-readable dump for debugging small networks. *)
val pp : Format.formatter -> t -> unit
