module Vec = Prelude.Vec
module Fat_tree = Topology.Fat_tree
module Sharing = Hire.Sharing
module Poly_req = Hire.Poly_req

type inc_setup = Homogeneous | Heterogeneous

let inc_setup_to_string = function
  | Homogeneous -> "homogeneous"
  | Heterogeneous -> "heterogeneous"

type t = {
  topo : Fat_tree.t;
  server_cap : Vec.t;
  switch_cap : Vec.t;
  server_avail : Vec.t array;  (* by node id; [no_ledger] for switches *)
  sharing : Sharing.t;
  failed_at : float array;  (* by node id; nan while the node is up *)
  dirty : Hire.Dirty.t;  (* ledger changes since the last network build *)
}

(* Vectors have at least one dimension, so the empty one marks a node
   without a server ledger. *)
let no_ledger : Vec.t = [||]

let create ?server_capacity ?switch_capacity ?inc_capable_fraction ?topology ~k ~setup ~services rng =
  let server_cap =
    match server_capacity with
    | Some c -> c
    | None -> Topology.Resource.Server.default_capacity
  in
  let switch_cap =
    match switch_capacity with
    | Some c -> c
    | None -> Topology.Resource.Switch.default_capacity
  in
  let topo = match topology with Some t -> t | None -> Fat_tree.create ~k in
  let node_count = Fat_tree.node_count topo in
  let server_avail = Array.make node_count no_ledger in
  Array.iter (fun s -> server_avail.(s) <- Vec.copy server_cap) (Fat_tree.servers topo);
  let service_arr = Array.of_list services in
  (* Keep the paper's servers-per-INC-switch ratio (k = 26 ⇒ 5.2) at any
     scale: only a k/26 fraction of switches offer INC. *)
  let fraction =
    match inc_capable_fraction with
    | Some f -> Float.max 0.0 (Float.min 1.0 f)
    | None -> Float.min 1.0 (float_of_int k /. 26.0)
  in
  let all_switches = Fat_tree.switches topo in
  let capable = Hashtbl.create 64 in
  let n_capable =
    max 1 (int_of_float (Float.round (fraction *. float_of_int (Array.length all_switches))))
  in
  List.iter
    (fun s -> Hashtbl.replace capable s ())
    (Prelude.Rng.sample_without_replacement rng ~n:n_capable all_switches);
  let supported switch =
    if not (Hashtbl.mem capable switch) then []
    else begin
      match setup with
      | Homogeneous -> services
      | Heterogeneous ->
          if Array.length service_arr <= 2 then services
          else Prelude.Rng.sample_without_replacement rng ~n:2 service_arr
    end
  in
  let sharing = Sharing.create ~topo ~capacity:switch_cap ~supported in
  {
    topo;
    server_cap;
    switch_cap;
    server_avail;
    sharing;
    failed_at = Array.make node_count Float.nan;
    dirty = Hire.Dirty.create ~node_count;
  }

let topo t = t.topo
let sharing t = t.sharing

(* ------------------------------------------------------------------ *)
(* Liveness (fault injection)                                         *)
(* ------------------------------------------------------------------ *)

let is_alive t node = Float.is_nan t.failed_at.(node)

let fail_node t ~time node =
  if not (is_alive t node) then
    invalid_arg (Printf.sprintf "Cluster.fail_node: node %d is already down" node);
  (* Ledgers are untouched: the simulator kills and releases the node's
     running tasks first, so capacity conservation holds through the
     outage (a recovered node comes back with exactly its capacity). *)
  if not (Fat_tree.is_server t.topo node) then Sharing.set_alive t.sharing node false;
  Hire.Dirty.mark_structural t.dirty;
  t.failed_at.(node) <- time

let recover_node t node =
  if is_alive t node then invalid_arg (Printf.sprintf "Cluster.recover_node: node %d is up" node);
  let failed_at = t.failed_at.(node) in
  t.failed_at.(node) <- Float.nan;
  if not (Fat_tree.is_server t.topo node) then Sharing.set_alive t.sharing node true;
  Hire.Dirty.mark_structural t.dirty;
  failed_at

let n_inc_capable t =
  Array.fold_left
    (fun acc s -> if Sharing.n_supported t.sharing s > 0 then acc + 1 else acc)
    0
    (Fat_tree.switches t.topo)
let n_servers t = Array.length (Fat_tree.servers t.topo)
let n_switches t = Array.length (Fat_tree.switches t.topo)

(* The ledger of server [s], or [no_ledger] when [s] is not a server. *)
let ledger t s =
  if s >= 0 && s < Array.length t.server_avail then t.server_avail.(s) else no_ledger

let server_available t s =
  let v = ledger t s in
  if v == no_ledger then
    invalid_arg (Printf.sprintf "Cluster.server_available: %d is not a server" s);
  Vec.copy v

let server_capacity t = Vec.copy t.server_cap

(* The view hands out the ledger itself, not a copy: HIRE only reads
   it, once per Ms→K price, ToR aggregate and shortcut candidate. *)
let server_ledger t s =
  let v = ledger t s in
  if v == no_ledger then invalid_arg (Printf.sprintf "Cluster.view: %d is not a server" s);
  v

let view t =
  {
    Hire.View.topo = t.topo;
    server_capacity = t.server_cap;
    server_available = server_ledger t;
    sharing = t.sharing;
    alive = (fun node -> is_alive t node);
    dirty = t.dirty;
  }

let place_server_task t ~server ~demand =
  let avail = ledger t server in
  if avail == no_ledger then
    invalid_arg (Printf.sprintf "Cluster.place_server_task: %d is not a server" server);
  if not (is_alive t server) then
    invalid_arg (Printf.sprintf "Cluster.place_server_task: server %d is down" server);
  if not (Vec.fits ~demand ~available:avail) then
    invalid_arg
      (Printf.sprintf "Cluster.place_server_task: demand does not fit on server %d" server);
  Vec.sub_into avail demand;
  Hire.Dirty.mark_server t.dirty server

let release_server_task t ~server ~demand =
  let avail = ledger t server in
  if avail == no_ledger then invalid_arg "Cluster.release_server_task: not a server";
  Vec.add_into avail demand;
  (* Defensive ledger check: a refund beyond capacity means a double
     release (or a release with the wrong demand).  Fail loudly — the
     fault-injection requeue path leans on this invariant — while
     tolerating floating-point drift from charge/refund cycles. *)
  Array.iteri
    (fun i x ->
      let cap = t.server_cap.(i) in
      let eps = 1e-6 *. (1.0 +. Float.abs cap) in
      if x > cap +. eps then begin
        if Obs.enabled () then Obs.Registry.incr (Obs.Registry.counter "cluster.over_release");
        invalid_arg
          (Printf.sprintf "Cluster.release_server_task: over-release on server %d (dimension %d)"
             server i)
      end
      else if x > cap then avail.(i) <- cap)
    avail;
  Hire.Dirty.mark_server t.dirty server

let network_parts tg ~shared =
  match tg.Poly_req.kind with
  | Poly_req.Server_tg -> invalid_arg "Cluster: not a network task group"
  | Poly_req.Network_tg n ->
      if shared then (n.Poly_req.service, n.Poly_req.per_switch, tg.Poly_req.demand)
      else
        (* Baselines cannot track reuse: fold the registration into the
           per-instance demand so nothing is ever shared. *)
        ( n.Poly_req.service,
          Vec.zero (Vec.dim tg.Poly_req.demand),
          Vec.add n.Poly_req.per_switch tg.Poly_req.demand )

let place_network_task t ~switch ~tg ~shared =
  let service, per_switch, per_instance = network_parts tg ~shared in
  let charged =
    Sharing.effective_demand t.sharing ~switch ~service ~per_switch ~per_instance
  in
  Sharing.place t.sharing ~switch ~service ~per_switch ~per_instance;
  Hire.Dirty.mark_switch t.dirty switch;
  charged

let release_network_task t ~switch ~tg ~shared =
  let service, _per_switch, per_instance = network_parts tg ~shared in
  Sharing.release t.sharing ~switch ~service ~per_instance;
  Hire.Dirty.mark_switch t.dirty switch

(* ------------------------------------------------------------------ *)
(* Snapshot / restore (journal checkpoints, docs/JOURNAL.md)           *)
(* ------------------------------------------------------------------ *)

(* Topology, capacities and the INC capability map are reproduced by
   rebuilding the cluster from its seed; the snapshot carries only the
   dynamic ledgers: server availability (in [Fat_tree.servers] order),
   the dead set (sorted), and the switch-sharing state. *)
let snapshot t =
  let module Enc = Prelude.Codec.Enc in
  let e = Enc.create () in
  Enc.array e (fun e s -> Enc.float_array e t.server_avail.(s)) (Fat_tree.servers t.topo);
  let dead = ref [] in
  for n = Array.length t.failed_at - 1 downto 0 do
    if not (is_alive t n) then dead := (n, t.failed_at.(n)) :: !dead
  done;
  Enc.list e
    (fun e (n, tm) ->
      Enc.int e n;
      Enc.f64 e tm)
    !dead;
  Sharing.encode_state t.sharing e;
  Enc.to_string e

let restore t blob =
  let module Dec = Prelude.Codec.Dec in
  let d = Dec.of_string blob in
  let servers = Fat_tree.servers t.topo in
  let n = Dec.uint d in
  if n <> Array.length servers then
    raise
      (Prelude.Codec.Error
         (Printf.sprintf "Cluster.restore: snapshot has %d servers, cluster has %d" n
            (Array.length servers)));
  Array.iter
    (fun s ->
      let avail = Dec.float_array d in
      let dst = t.server_avail.(s) in
      if Array.length avail <> Array.length dst then
        raise (Prelude.Codec.Error "Cluster.restore: server dimension mismatch");
      Array.blit avail 0 dst 0 (Array.length avail))
    servers;
  Array.fill t.failed_at 0 (Array.length t.failed_at) Float.nan;
  List.iter
    (fun (node, tm) ->
      if node < 0 || node >= Array.length t.failed_at || not (is_alive t node) then
        raise (Prelude.Codec.Error "Cluster.restore: bad dead node in snapshot");
      t.failed_at.(node) <- tm)
    (Dec.list d (fun d ->
         let node = Dec.int d in
         let tm = Dec.f64 d in
         (node, tm)));
  Sharing.decode_state t.sharing d;
  if not (Dec.at_end d) then
    raise (Prelude.Codec.Error "Cluster.restore: trailing bytes in snapshot");
  (* Everything may have moved: force the next network build to start
     from a clean rebuild rather than an incremental patch. *)
  Hire.Dirty.mark_structural t.dirty

let switch_used_total t = Sharing.total_used t.sharing
