type t = {
  topo : Topology.Fat_tree.t;
  server_capacity : Prelude.Vec.t;
  server_available : int -> Prelude.Vec.t;
  sharing : Sharing.t;
  alive : int -> bool;
  dirty : Dirty.t;
}
