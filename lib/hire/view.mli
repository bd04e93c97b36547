(** A scheduler's read view of cluster state: the topology, the server
    ledger (capacity and per-server remaining resources), and the switch
    ledger with sharing state.  The simulator provides a concrete
    instance; keeping it abstract here lets the HIRE core stay
    independent of the simulation engine. *)

type t = {
  topo : Topology.Fat_tree.t;
  server_capacity : Prelude.Vec.t;
  server_available : int -> Prelude.Vec.t;
      (** by server node id: the server's live ledger, not a copy.
          Callers must not mutate it, and must not keep it past the next
          change to the ledger. *)
  sharing : Sharing.t;
  alive : int -> bool;
      (** node liveness under fault injection; dead servers must receive
          no flow-network arcs (switch liveness is already masked inside
          {!Sharing.supports}) *)
  dirty : Dirty.t option;
      (** which nodes' ledgers changed since the last network build;
          [None] means the owner does not track dirt and incremental
          builders must conservatively rebuild everything *)
}
