module Graph = Flow.Graph
module Mcmf = Flow.Mcmf
module Vec = Prelude.Vec
module Int_tbl = Prelude.Int_tbl
module Fat_tree = Topology.Fat_tree

type node_role =
  | Super
  | Flavor_sel of int
  | Group of int
  | Postpone of int
  | Aux_server of int
  | Aux_inc of int
  | Machine_server of int
  | Machine_inc of int
  | Sink

let pp_role fmt = function
  | Super -> Format.pp_print_string fmt "S"
  | Flavor_sel j -> Format.fprintf fmt "F(job %d)" j
  | Group tg -> Format.fprintf fmt "G(tg %d)" tg
  | Postpone j -> Format.fprintf fmt "P(job %d)" j
  | Aux_server s -> Format.fprintf fmt "Ns(%d)" s
  | Aux_inc s -> Format.fprintf fmt "Nn(%d)" s
  | Machine_server s -> Format.fprintf fmt "Ms(%d)" s
  | Machine_inc s -> Format.fprintf fmt "Mn(%d)" s
  | Sink -> Format.pp_print_string fmt "K"

(* Roles live in a flat int array rather than a hashtable: tag in the
   low 4 bits, payload id shifted above.  -1 means "no role"; entries at
   or beyond [valid_n] are stale leftovers from a previous (larger)
   round and must be ignored. *)
let encode_role = function
  | Sink -> 0
  | Super -> 1
  | Flavor_sel j -> (j lsl 4) lor 2
  | Group tg -> (tg lsl 4) lor 3
  | Postpone j -> (j lsl 4) lor 4
  | Aux_server s -> (s lsl 4) lor 5
  | Aux_inc s -> (s lsl 4) lor 6
  | Machine_server s -> (s lsl 4) lor 7
  | Machine_inc s -> (s lsl 4) lor 8

let decode_role packed =
  let id = packed asr 4 in
  match packed land 15 with
  | 0 -> Sink
  | 1 -> Super
  | 2 -> Flavor_sel id
  | 3 -> Group id
  | 4 -> Postpone id
  | 5 -> Aux_server id
  | 6 -> Aux_inc id
  | 7 -> Machine_server id
  | 8 -> Machine_inc id
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Per-round aggregates                                               *)
(* ------------------------------------------------------------------ *)

(* Per-ToR aggregate of server availability: the lower bound implements
   the "all resource nodes reachable via N can run at least one task"
   rule for subtree shortcuts; the upper bound prices them. *)
type tor_agg = { n_servers : int; min_avail : Vec.t; max_avail : Vec.t }

let compute_tor_agg (view : View.t) tor =
  let topo = view.topo in
  (* Dead servers are invisible: they must not shape the aggregate
     bounds, or the ToR shortcut could admit flow the subtree cannot
     host. *)
  let servers =
    Array.of_list (List.filter view.alive (Array.to_list (Fat_tree.servers_under topo tor)))
  in
  if Array.length servers = 0 then None
  else begin
    let first = view.server_available servers.(0) in
    let min_avail = Vec.copy first and max_avail = Vec.copy first in
    Array.iter
      (fun s ->
        let a = view.server_available s in
        Array.iteri
          (fun i x ->
            if x < min_avail.(i) then min_avail.(i) <- x;
            if x > max_avail.(i) then max_avail.(i) <- x)
          a)
      servers;
    Some { n_servers = Array.length servers; min_avail; max_avail }
  end

(* ------------------------------------------------------------------ *)
(* Persistent builder                                                 *)
(* ------------------------------------------------------------------ *)

(* Watermark of the topology ("prefix") part of the network: everything
   up to and including the Ms/Ns/Nn/Mn nodes and topology arcs.  The
   per-round job part is a suffix appended after the mark and discarded
   by [Graph.release] at the start of the next build. *)
type prefix = {
  mark : Graph.mark;
  p_arcs : int;  (* forward-arc count at the mark *)
  mutable big : int;  (* switch-switch arc capacity used by this prefix *)
}

type builder = {
  g : Graph.t;
  reopt : bool;  (* sparse touched-arc flow resets on the patch path *)
  mutable roles : int array;  (* packed node roles, -1 = none *)
  mutable valid_n : int;  (* nodes with meaningful roles this round *)
  mutable prefix : prefix option;
  (* Topology-id -> graph-node / arc maps, -1 = absent. *)
  mutable ms_node : int array;
  mutable ns_node : int array;
  mutable nn_node : int array;
  mutable mn_node : int array;
  mutable ms_arc : int array;  (* Ms -> K arc, patched on server dirt *)
  mutable mn_arc : int array;  (* Mn -> K arc, patched on switch dirt *)
  mutable big_arcs : int array;  (* switch-switch arcs carrying [big] *)
  mutable n_big : int;
  mutable tor_aggs : tor_agg option array;  (* by ToR switch id *)
  mutable tor_stamp : int array;  (* dedupe per-round ToR recomputes *)
  mutable stamp : int;
  (* Shortcut candidates of the task group being built, in generation
     order, and their packed sort keys (see [select_shortcuts]).  Reused
     across groups and rounds. *)
  mutable sc_cost : int array;
  mutable sc_dst : int array;  (* graph node *)
  mutable sc_cap : int array;
  mutable sc_keys : int array;
  mutable sc_n : int;
  (* Stats. *)
  mutable builds : int;
  mutable full_rebuilds : int;
  mutable last_full : bool;
  mutable last_touched : int;
  mutable last_total : int;
  mutable last_reset : int;  (* arc pairs whose flow the pre-patch reset undid *)
}

let create_builder ?(reopt = false) () =
  let g = Graph.create ~node_hint:1024 ~arc_hint:8192 () in
  (* With re-optimization on, the graph records which arc pairs each
     solve moves flow on, so the next patch undoes only those instead of
     sweeping the whole arena. *)
  Graph.set_flow_tracking g reopt;
  {
    g;
    reopt;
    roles = [||];
    valid_n = 0;
    prefix = None;
    ms_node = [||];
    ns_node = [||];
    nn_node = [||];
    mn_node = [||];
    ms_arc = [||];
    mn_arc = [||];
    big_arcs = [||];
    n_big = 0;
    tor_aggs = [||];
    tor_stamp = [||];
    stamp = 0;
    sc_cost = [||];
    sc_dst = [||];
    sc_cap = [||];
    sc_keys = [||];
    sc_n = 0;
    builds = 0;
    full_rebuilds = 0;
    last_full = true;
    last_touched = 0;
    last_total = 0;
    last_reset = 0;
  }

let ensure_topology b node_count =
  if Array.length b.ms_node <> node_count then begin
    b.ms_node <- Array.make node_count (-1);
    b.ns_node <- Array.make node_count (-1);
    b.nn_node <- Array.make node_count (-1);
    b.mn_node <- Array.make node_count (-1);
    b.ms_arc <- Array.make node_count (-1);
    b.mn_arc <- Array.make node_count (-1);
    b.tor_aggs <- Array.make node_count None;
    b.tor_stamp <- Array.make node_count (-1);
    b.prefix <- None
  end

let ensure_roles b n =
  if Array.length b.roles < n then begin
    let cap = max n (2 * Array.length b.roles) in
    let arr = Array.make cap (-1) in
    Array.blit b.roles 0 arr 0 (Array.length b.roles);
    b.roles <- arr
  end

let push_big b a =
  if b.n_big = Array.length b.big_arcs then begin
    let cap = max 64 (2 * Array.length b.big_arcs) in
    let arr = Array.make cap 0 in
    Array.blit b.big_arcs 0 arr 0 b.n_big;
    b.big_arcs <- arr
  end;
  b.big_arcs.(b.n_big) <- a;
  b.n_big <- b.n_big + 1

type t = { b : builder; sink : int }

let graph t = t.b.g

let role_opt t v =
  if v >= 0 && v < t.b.valid_n && t.b.roles.(v) >= 0 then Some (decode_role t.b.roles.(v))
  else None

let role t v =
  match role_opt t v with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Flow_network.role: unknown node %d" v)

let size t = (Graph.node_count t.b.g, Graph.arc_count t.b.g)

type build_stats = {
  full : bool;
  touched_arcs : int;
  total_arcs : int;
  reset_arcs : int;
  builds : int;
  full_rebuilds : int;
}

let stats t =
  {
    full = t.b.last_full;
    touched_arcs = t.b.last_touched;
    total_arcs = t.b.last_total;
    reset_arcs = t.b.last_reset;
    builds = t.b.builds;
    full_rebuilds = t.b.full_rebuilds;
  }

(* Locality context of one task group: inputs of Φloc.  Υ and Γ are
   only read when a related task is placed, so a [Neutral] context
   computes neither. *)
type loc_ctx =
  | Neutral
  | Related of { server_weight : float; upsilon : int -> float; gain : Locality.Gain.t }

let loc_ctx (view : View.t) census ~(params : Cost_model.params) (ts : Pending.tg_state) =
  let related = ts.tg.Poly_req.tg_id :: ts.tg.Poly_req.connected in
  let on_servers, on_switches =
    List.fold_left
      (fun (sv, sw) tg_id ->
        List.fold_left
          (fun (sv, sw) (m, c) ->
            if Fat_tree.is_server view.topo m then (sv + c, sw) else (sv, sw + c))
          (sv, sw)
          (Locality.Task_census.machines census ~tg_id))
      (0, 0) related
  in
  let total_placed = on_servers + on_switches in
  if total_placed = 0 then Neutral
  else begin
    let group_size =
      List.fold_left (fun acc id -> acc + Locality.Task_census.total census ~tg_id:id) 0 related
    in
    Related
      {
        server_weight = float_of_int on_servers /. float_of_int total_placed;
        upsilon =
          Locality.upsilon view.topo census ~tg_ids:related ~group_size:(max 1 group_size);
        gain = Locality.Gain.compute view.topo census ~related ~gamma:params.gamma ~xi:params.xi;
      }
  end

(* Cost_model.phi_loc ignores Υ, Γ and the weight when nothing related
   is placed. *)
let neutral_phi_loc =
  Cost_model.phi_loc ~related_placed:false ~upsilon:1.0 ~gamma_norm:0.0 ~server_weight:0.5

let phi_loc_at ctx node =
  match ctx with
  | Neutral -> neutral_phi_loc
  | Related { server_weight; upsilon; gain } ->
      Cost_model.phi_loc ~related_placed:true ~upsilon:(upsilon node)
        ~gamma_norm:(Locality.Gain.normalized gain node)
        ~server_weight

(* ------------------------------------------------------------------ *)
(* Shortcut candidates                                                *)
(* ------------------------------------------------------------------ *)

(* A group's candidates are appended to the builder's buffer, then
   [select_shortcuts] keeps the [max_shortcuts] cheapest.  The order of
   equal costs is observable (arc order sets SSP tie-breaks, and the cut
   decides which candidates survive), so it is fixed, and pinned by the
   golden and bench digests: [Array.sort] by cost over the candidates in
   reverse generation order.  Sort key [i] packs the cost of candidate
   [n-1-i] with that index, and Prelude.Cost_sort permutes the keys as
   [Array.sort] does (docs/PERFORMANCE.md, "Why the order is exact"). *)
let push_shortcut b ~dst ~cap ~cost =
  if b.sc_n = Array.length b.sc_cost then begin
    let len = max 64 (2 * b.sc_n) in
    let grow a =
      let a' = Array.make len 0 in
      Array.blit a 0 a' 0 b.sc_n;
      a'
    in
    b.sc_cost <- grow b.sc_cost;
    b.sc_dst <- grow b.sc_dst;
    b.sc_cap <- grow b.sc_cap;
    b.sc_keys <- Array.make len 0
  end;
  let i = b.sc_n in
  b.sc_cost.(i) <- cost;
  b.sc_dst.(i) <- dst;
  b.sc_cap.(i) <- cap;
  b.sc_n <- i + 1

(* Sorts the buffered candidates and returns how many of the cheapest
   are kept; [Cost_sort.index b.sc_keys.(j)] is the buffer slot of the
   [j]-th kept one. *)
let select_shortcuts b ~(params : Cost_model.params) =
  let n = b.sc_n in
  for i = 0 to n - 1 do
    let c = n - 1 - i in
    b.sc_keys.(i) <- Prelude.Cost_sort.pack ~cost:b.sc_cost.(c) ~index:c
  done;
  Prelude.Cost_sort.sort b.sc_keys n;
  min n params.max_shortcuts

let server_shortcuts b (view : View.t) ~params ~ctx ~phi_prio (ts : Pending.tg_state) =
  let topo = view.topo in
  let demand = ts.tg.Poly_req.demand in
  b.sc_n <- 0;
  Array.iter
    (fun tor ->
      match b.tor_aggs.(tor) with
      | None -> ()
      | Some agg ->
          if Vec.fits ~demand ~available:agg.min_avail then begin
            (* Every server under this ToR fits: one aggregate edge. *)
            let cost =
              Cost_model.gs_shortcut ~demand ~available:agg.max_avail
                ~phi_loc:(phi_loc_at ctx tor)
                ~phi_prio params
            in
            push_shortcut b ~dst:b.ns_node.(tor) ~cap:(min ts.remaining agg.n_servers) ~cost
          end
          else if Vec.fits ~demand ~available:agg.max_avail then
            (* Mixed ToR: direct edges to the servers that do fit. *)
            Array.iter
              (fun s ->
                let available = view.server_available s in
                if view.View.alive s && Vec.fits ~demand ~available then begin
                  let cost =
                    Cost_model.gs_shortcut ~demand ~available
                      ~phi_loc:(phi_loc_at ctx s)
                      ~phi_prio params
                  in
                  push_shortcut b ~dst:b.ms_node.(s) ~cap:1 ~cost
                end)
              (Fat_tree.servers_under topo tor))
    (Fat_tree.tor_switches topo);
  select_shortcuts b ~params

let rec mem_int x = function [] -> false | y :: l -> Int.equal x y || mem_int x l

let network_shortcuts b (view : View.t) ~(params : Cost_model.params) ~ctx ~phi_prio
    (ts : Pending.tg_state) (ninfo : Poly_req.network_info) =
  let topo = view.topo in
  let sharing = view.sharing in
  let service = ninfo.Poly_req.service in
  (* A sharing-unaware scheduler (CoCo++ retrofit) folds the shared
     registration into every instance: no reuse benefit. *)
  let per_switch, per_instance =
    if params.sharing_aware then (ninfo.Poly_req.per_switch, ts.tg.Poly_req.demand)
    else
      ( Vec.zero (Vec.dim ts.tg.Poly_req.demand),
        Vec.add ninfo.Poly_req.per_switch ts.tg.Poly_req.demand )
  in
  (* The demand a switch is charged: [per_instance] where the service
     is already registered, [fresh] where the registration comes too
     (Sharing.effective_demand). *)
  let fresh = Vec.add per_switch per_instance in
  let single_tor =
    match ninfo.Poly_req.shape with
    | Comp_store.Single_tor -> true
    | Comp_store.Single | Comp_store.Chain | Comp_store.Tree | Comp_store.Spine_leaf -> false
  in
  b.sc_n <- 0;
  Sharing.iter_supporting sharing ~service
    (fun s ~avail ~capacity ~active ~n_active ~n_supported ->
      let demand = if active then per_instance else fresh in
      if
        ((not single_tor) || Fat_tree.kind topo s = Fat_tree.Tor)
        && (not (mem_int s ts.placed_on))
        && Vec.fits ~demand ~available:avail
      then begin
        let phi_new =
          if params.sharing_aware then
            Cost_model.phi_new ~service_active:active ~n_active ~max_possible:n_supported
          else 0.5
        in
        let cost =
          Cost_model.gn_shortcut ~demand ~available:avail ~capacity
            ~phi_loc:(phi_loc_at ctx s)
            ~phi_new ~phi_prio params
        in
        push_shortcut b ~dst:b.mn_node.(s) ~cap:1 ~cost
      end);
  select_shortcuts b ~params

(* ------------------------------------------------------------------ *)
(* Build                                                              *)
(* ------------------------------------------------------------------ *)

let mn_cost (view : View.t) s (params : Cost_model.params) =
  Cost_model.mn_to_k
    ~util:(Sharing.utilization view.sharing s)
    ~phi_tor:(Cost_model.phi_tor view.topo ~switch:s)
    ~phi_floor:
      (Cost_model.phi_floor_p
         ~active:(Sharing.n_active view.sharing s)
         ~max_possible:(Sharing.n_supported view.sharing s))
    params

(* Rebuild the topology prefix from scratch: sink, machine nodes for
   alive servers / supported switches, the two topology copies, and the
   downward arcs.  Node and arc creation order is the contract here —
   the patch path below reuses these ids, so any reordering breaks the
   full-vs-incremental identity. *)
let build_prefix b (view : View.t) ~big ~(params : Cost_model.params) mk =
  let g = b.g in
  let topo = view.topo in
  let node_count = Fat_tree.node_count topo in
  Graph.clear g;
  Array.fill b.ms_node 0 node_count (-1);
  Array.fill b.ns_node 0 node_count (-1);
  Array.fill b.nn_node 0 node_count (-1);
  Array.fill b.mn_node 0 node_count (-1);
  Array.fill b.ms_arc 0 node_count (-1);
  Array.fill b.mn_arc 0 node_count (-1);
  b.n_big <- 0;
  let sink = mk Sink in
  (* Dead servers get no machine node at all: without an Ms→K arc no
     path can end there, and the ToR topology arcs below skip them. *)
  Array.iter
    (fun s ->
      if view.View.alive s then begin
        let v = mk (Machine_server s) in
        b.ms_node.(s) <- v;
        let cost = Cost_model.ms_to_k ~util:(View.server_utilization view s) params in
        b.ms_arc.(s) <- Graph.add_arc g ~src:v ~dst:sink ~cap:1 ~cost
      end)
    (Fat_tree.servers topo);
  Array.iter
    (fun s ->
      b.ns_node.(s) <- mk (Aux_server s);
      b.nn_node.(s) <- mk (Aux_inc s))
    (Fat_tree.switches topo);
  Array.iter
    (fun s ->
      if view.View.alive s && Sharing.n_supported view.sharing s > 0 then begin
        let v = mk (Machine_inc s) in
        b.mn_node.(s) <- v;
        ignore (Graph.add_arc g ~src:b.nn_node.(s) ~dst:v ~cap:1 ~cost:0);
        b.mn_arc.(s) <- Graph.add_arc g ~src:v ~dst:sink ~cap:1 ~cost:(mn_cost view s params)
      end)
    (Fat_tree.switches topo);
  (* Topology arcs, downward. *)
  Array.iter
    (fun s ->
      List.iter
        (fun child ->
          if Fat_tree.is_server topo child then begin
            let dst = b.ms_node.(child) in
            if dst >= 0 then ignore (Graph.add_arc g ~src:b.ns_node.(s) ~dst ~cap:1 ~cost:0)
            (* dead server: unreachable by construction *)
          end
          else begin
            push_big b (Graph.add_arc g ~src:b.ns_node.(s) ~dst:b.ns_node.(child) ~cap:big ~cost:0);
            push_big b (Graph.add_arc g ~src:b.nn_node.(s) ~dst:b.nn_node.(child) ~cap:big ~cost:0)
          end)
        (Fat_tree.children topo s))
    (Fat_tree.switches topo);
  Array.iter (fun tor -> b.tor_aggs.(tor) <- compute_tor_agg view tor) (Fat_tree.tor_switches topo);
  b.prefix <- Some { mark = Graph.mark g; p_arcs = Graph.arc_count g; big };
  sink

(* Rewind the graph to the topology prefix and patch only the arcs whose
   inputs changed: Ms→K / Mn→K costs of dirty nodes, switch-switch
   capacities when [big] moved, and the ToR aggregates of dirty servers.
   The resulting arrays are element-for-element identical to what
   [build_prefix] would produce from the same cluster state, which is
   what makes incremental solves bit-identical to full rebuilds. *)
let patch_prefix b (view : View.t) p d ~big ~(params : Cost_model.params) touched =
  let g = b.g in
  let topo = view.topo in
  Graph.release g p.mark;
  (* Undo last round's flow (and any injected corruption) on prefix arcs:
     sparsely via the graph's touched-pair record when re-optimizing,
     otherwise a full arena sweep.  Bit-identical end state either
     way (Graph.reset_touched_flows contract). *)
  if b.reopt then b.last_reset <- Graph.reset_touched_flows g
  else begin
    Graph.reset_flows g;
    b.last_reset <- Graph.arc_count g
  end;
  if p.big <> big then begin
    for i = 0 to b.n_big - 1 do
      Graph.set_cap g b.big_arcs.(i) big
    done;
    touched := !touched + b.n_big;
    p.big <- big
  end;
  Dirty.iter_servers d (fun s ->
      let a = b.ms_arc.(s) in
      if a >= 0 then begin
        Graph.set_cost g a (Cost_model.ms_to_k ~util:(View.server_utilization view s) params);
        incr touched
      end);
  Dirty.iter_switches d (fun s ->
      let a = b.mn_arc.(s) in
      if a >= 0 then begin
        Graph.set_cost g a (mn_cost view s params);
        incr touched
      end);
  (* Re-aggregate only the ToRs owning a dirty server (deduped). *)
  b.stamp <- b.stamp + 1;
  Dirty.iter_servers d (fun s ->
      let tor = Fat_tree.tor_of_server topo s in
      if b.tor_stamp.(tor) <> b.stamp then begin
        b.tor_stamp.(tor) <- b.stamp;
        b.tor_aggs.(tor) <- compute_tor_agg view tor
      end)

let build ?builder (view : View.t) census ~jobs ~now ~(params : Cost_model.params) =
  let topo = view.topo in
  let b = match builder with Some b -> b | None -> create_builder () in
  ensure_topology b (Fat_tree.node_count topo);
  let g = b.g in
  let mk r =
    let v = Graph.add_node g in
    ensure_roles b (v + 1);
    b.roles.(v) <- encode_role r;
    v
  in

  (* --- select jobs and task groups, FIFO by arrival, bounded --- *)
  let jobs =
    List.filter Pending.has_pending_work jobs
    |> List.sort (fun (a : Pending.job_state) b ->
           Float.compare a.poly.Poly_req.arrival b.poly.Poly_req.arrival)
  in
  let budget = ref params.max_queue_tgs in
  let selected =
    List.filter_map
      (fun (job : Pending.job_state) ->
        if !budget <= 0 then None
        else begin
          let wanted ts =
            ts.Pending.remaining > 0
            &&
            match Pending.status job ts with
            | Flavor.Materialized -> true
            | Flavor.Undecided -> not job.inc_flavor_locked
            | Flavor.Dropped -> false
          in
          let entries = Array.to_list job.tg_states |> List.filter wanted in
          let take = min (List.length entries) !budget in
          if take = 0 then None
          else begin
            budget := !budget - take;
            Some (job, List.filteri (fun i _ -> i < take) entries)
          end
        end)
      jobs
  in
  let total_supply =
    List.fold_left
      (fun acc (job, tgs) ->
        List.fold_left
          (fun acc ts ->
            if Pending.status job ts = Flavor.Materialized then acc + ts.Pending.remaining
            else acc)
          acc tgs)
      0 selected
  in
  let big = total_supply + List.length selected + 1 in

  (* --- topology part: patch the persistent prefix or rebuild it --- *)
  let touched = ref 0 in
  let dirt =
    match view.View.dirty with
    | Some d when not (Dirty.structural d) -> Some d
    | _ -> None
  in
  let sink =
    match (b.prefix, dirt) with
    | Some p, Some d ->
        patch_prefix b view p d ~big ~params touched;
        b.last_full <- false;
        0
    | _ ->
        let sink = build_prefix b view ~big ~params mk in
        b.last_full <- true;
        b.full_rebuilds <- b.full_rebuilds + 1;
        b.last_reset <- 0;
        sink
  in
  (* The marks are folded in (or subsumed by a full rebuild); forget
     them.  Safe within a round's resilience fallback chain because
     ledgers only change after the round returns. *)
  (match view.View.dirty with Some d -> Dirty.clear d | None -> ());

  let max_waiting =
    List.fold_left
      (fun acc (job, _) -> Float.max acc (now -. (job : Pending.job_state).poly.Poly_req.arrival))
      1e-6 selected
  in

  (* --- job, group, postpone, flavor nodes --- *)
  let cheapest_shortcut = Int_tbl.create 64 in
  let flavor_jobs = ref [] in
  List.iter
    (fun ((job : Pending.job_state), tgs) ->
      let waiting = Float.max 0.0 (now -. job.poly.Poly_req.arrival) in
      let p = mk (Postpone job.poly.Poly_req.job_id) in
      let p_cap = ref 0 in
      let phi_prio = Cost_model.phi_prio job.poly.Poly_req.priority in
      let undecided_here = ref [] in
      List.iter
        (fun (ts : Pending.tg_state) ->
          let tg = ts.tg in
          let gnode = mk (Group tg.Poly_req.tg_id) in
          let ctx =
            if params.locality_aware then loc_ctx view census ~params ts else Neutral
          in
          let kept =
            match tg.Poly_req.kind with
            | Poly_req.Server_tg -> server_shortcuts b view ~params ~ctx ~phi_prio ts
            | Poly_req.Network_tg ninfo -> network_shortcuts b view ~params ~ctx ~phi_prio ts ninfo
          in
          if kept > 0 then
            Int_tbl.replace cheapest_shortcut tg.Poly_req.tg_id
              (Prelude.Cost_sort.cost b.sc_keys.(0));
          for j = 0 to kept - 1 do
            let c = Prelude.Cost_sort.index b.sc_keys.(j) in
            ignore
              (Graph.add_arc g ~src:gnode ~dst:b.sc_dst.(c) ~cap:b.sc_cap.(c)
                 ~cost:b.sc_cost.(c))
          done;
          match Pending.status job ts with
          | Flavor.Materialized ->
              Graph.set_supply g gnode ts.remaining;
              let phi_delay =
                Cost_model.phi_delay ~waiting ~max_waiting
                  ~placed:(tg.Poly_req.count - ts.remaining)
                  ~total:tg.Poly_req.count
              in
              ignore
                (Graph.add_arc g ~src:gnode ~dst:p ~cap:ts.remaining
                   ~cost:(Cost_model.g_to_p ~phi_delay params));
              p_cap := !p_cap + ts.remaining
          | Flavor.Undecided -> undecided_here := (ts, gnode) :: !undecided_here
          | Flavor.Dropped -> ())
        tgs;
      if !undecided_here <> [] then begin
        let f = mk (Flavor_sel job.poly.Poly_req.job_id) in
        ignore
          (Graph.add_arc g ~src:f ~dst:p ~cap:1
             ~cost:(Cost_model.f_to_p ~phi_w:(Cost_model.phi_w ~waiting params) params));
        p_cap := !p_cap + 1;
        flavor_jobs := (job, f, waiting, List.rev !undecided_here) :: !flavor_jobs
      end;
      if !p_cap > 0 then ignore (Graph.add_arc g ~src:p ~dst:sink ~cap:!p_cap ~cost:0))
    selected;

  (* --- flavor estimates and F→G arcs --- *)
  let sentinel = 6 * params.cost_scale in
  List.iter
    (fun ((_job : Pending.job_state), f, waiting, und) ->
      (* Group the undecided task groups into variants by flavor. *)
      let variants = Hashtbl.create 4 in
      List.iter
        (fun ((ts : Pending.tg_state), gnode) ->
          let key = Flavor.to_string ts.tg.Poly_req.flavor in
          let cur = match Hashtbl.find_opt variants key with Some l -> l | None -> [] in
          Hashtbl.replace variants key ((ts, gnode) :: cur))
        und;
      let estimate_of key =
        let members = Hashtbl.find variants key in
        List.fold_left
          (fun acc ((ts : Pending.tg_state), _) ->
            let c =
              match Int_tbl.find_opt cheapest_shortcut ts.tg.Poly_req.tg_id with
              | Some c -> c
              | None -> sentinel
            in
            acc +. (float_of_int c *. float_of_int ts.tg.Poly_req.count))
          0.0 members
      in
      let max_est =
        Hashtbl.fold (fun key _ acc -> Float.max acc (estimate_of key)) variants 1.0
      in
      let job_has_inc_variant =
        List.exists (fun ((ts : Pending.tg_state), _) -> Poly_req.is_network ts.tg) und
      in
      Hashtbl.iter
        (fun key members ->
          (* "All parts of a flavor take resource availability into
             account" (§5.2): a variant with a shortcut-less member has
             no valid allocation anywhere this round and must not be
             selectable — otherwise the flavor decision could flow
             through its feasible sibling group. *)
          let fully_feasible =
            List.for_all
              (fun ((ts : Pending.tg_state), _) ->
                Int_tbl.mem cheapest_shortcut ts.tg.Poly_req.tg_id)
              members
          in
          if fully_feasible then begin
            let est = estimate_of key in
            let is_inc_variant =
              List.exists
                (fun ((ts : Pending.tg_state), _) -> Poly_req.is_network ts.tg)
                members
            in
            let cost =
              Cost_model.f_to_g
                ~phi_xhat:(Cost_model.phi_xhat ~estimate:est ~max_estimate:max_est)
                ~phi_pref:(Cost_model.phi_pref ~waiting params)
                ~fallback:(job_has_inc_variant && not is_inc_variant)
                params
            in
            List.iter
              (fun (_, gnode) -> ignore (Graph.add_arc g ~src:f ~dst:gnode ~cap:1 ~cost))
              members
          end)
        variants)
    !flavor_jobs;

  (* --- super selector and sink demand --- *)
  let n_flavor = List.length !flavor_jobs in
  let s_supply = min n_flavor params.max_flavor_decisions in
  if n_flavor > 0 then begin
    let s = mk Super in
    Graph.set_supply g s s_supply;
    List.iter
      (fun (_, f, _, _) ->
        ignore (Graph.add_arc g ~src:s ~dst:f ~cap:1 ~cost:(Cost_model.s_to_f params)))
      !flavor_jobs
  end;
  Graph.set_supply g sink (-(total_supply + s_supply));

  (* --- bookkeeping --- *)
  b.valid_n <- Graph.node_count g;
  b.builds <- b.builds + 1;
  let total_arcs = Graph.arc_count g in
  b.last_total <- total_arcs;
  b.last_touched <-
    (if b.last_full then total_arcs
     else
       let p_arcs = match b.prefix with Some p -> p.p_arcs | None -> 0 in
       !touched + (total_arcs - p_arcs));
  { b; sink }

(* ------------------------------------------------------------------ *)
(* Extraction                                                         *)
(* ------------------------------------------------------------------ *)

type outcome = {
  placements : (int * int) list;
  flavor_picks : (int * int) list;
  solver : Mcmf.result;
}

type solver = Ssp | Cost_scaling

let solver_name = function Ssp -> "ssp" | Cost_scaling -> "cost-scaling"

let solve_only ?(solver = Ssp) ?budget ?scratch t =
  match solver with
  | Ssp -> Mcmf.solve ?budget ?scratch t.b.g
  | Cost_scaling ->
      let r = Flow.Cost_scaling.solve ?budget t.b.g in
      {
        Mcmf.shipped = r.Flow.Cost_scaling.shipped;
        unshipped = r.Flow.Cost_scaling.unshipped;
        total_cost = r.Flow.Cost_scaling.total_cost;
        augmentations = r.Flow.Cost_scaling.pushes;
        elapsed_s = r.Flow.Cost_scaling.elapsed_s;
        degraded = r.Flow.Cost_scaling.degraded;
        profile = r.Flow.Cost_scaling.profile;
      }

let extract t ~solver =
  let extract_t0 = if Obs.enabled () then Prelude.Clock.now () else 0.0 in
  let paths = Mcmf.decompose t.b.g in
  let placements = ref [] and flavor_picks = ref [] in
  List.iter
    (fun (p : Mcmf.path) ->
      (* Nodes without a role are skipped rather than fatal: the
         cost-scaling backend leaves its virtual feasibility node in the
         graph, and a budget-exhausted partial flow may route through
         it. *)
      let roles_on_path = List.filter_map (role_opt t) p.nodes in
      let group = List.find_opt (function Group _ -> true | _ -> false) roles_on_path in
      let flavor = List.find_opt (function Flavor_sel _ -> true | _ -> false) roles_on_path in
      let machine =
        List.find_opt
          (function Machine_server _ | Machine_inc _ -> true | _ -> false)
          roles_on_path
      in
      (match (flavor, group) with
      | Some (Flavor_sel job_id), Some (Group tg_id) ->
          flavor_picks := (job_id, tg_id) :: !flavor_picks
      | _ -> ());
      match (group, machine) with
      | Some (Group tg_id), Some (Machine_server m) | Some (Group tg_id), Some (Machine_inc m)
        ->
          (* M→K capacity is 1, so such a path carries exactly one task. *)
          for _ = 1 to p.amount do
            placements := (tg_id, m) :: !placements
          done
      | _ -> ())
    paths;
  if Obs.enabled () then
    Obs.Trace.emit "flow_extract"
      [
        ("paths", Obs.Trace.Int (List.length paths));
        ("placements", Obs.Trace.Int (List.length !placements));
        ("flavor_picks", Obs.Trace.Int (List.length !flavor_picks));
        ("extract_s", Obs.Trace.Float (Prelude.Clock.now () -. extract_t0));
      ];
  { placements = List.rev !placements; flavor_picks = List.rev !flavor_picks; solver }

let solve_and_extract ?solver ?budget ?scratch t =
  let solver = solve_only ?solver ?budget ?scratch t in
  extract t ~solver
