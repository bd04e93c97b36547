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
  | Machine_server of int
  | Machine_inc of int
  | Sink

let pp_role fmt = function
  | Super -> Format.pp_print_string fmt "S"
  | Flavor_sel j -> Format.fprintf fmt "F(job %d)" j
  | Group tg -> Format.fprintf fmt "G(tg %d)" tg
  | Postpone j -> Format.fprintf fmt "P(job %d)" j
  | Aux_server s -> Format.fprintf fmt "Ns(%d)" s
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
  | Machine_server s -> (s lsl 4) lor 6
  | Machine_inc s -> (s lsl 4) lor 7

let decode_role packed =
  let id = packed asr 4 in
  match packed land 15 with
  | 0 -> Sink
  | 1 -> Super
  | 2 -> Flavor_sel id
  | 3 -> Group id
  | 4 -> Postpone id
  | 5 -> Aux_server id
  | 6 -> Machine_server id
  | 7 -> Machine_inc id
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Per-round aggregates                                               *)
(* ------------------------------------------------------------------ *)

(* Per-ToR aggregate of server availability: the lower bound implements
   the "all resource nodes reachable via N can run at least one task"
   rule for subtree shortcuts; the upper bound prices them. *)
type tor_agg = { n_servers : int; min_avail : Vec.t; max_avail : Vec.t }

let compute_tor_agg (view : View.t) tor =
  let servers = Fat_tree.servers_under view.topo tor in
  (* Dead servers are invisible: they must not shape the aggregate
     bounds, or the ToR shortcut could admit flow the subtree cannot
     host.  The first alive server seeds both bounds with copies of its
     ledger; the others fold into them. *)
  let n = ref 0 and min_avail = ref [||] and max_avail = ref [||] in
  for j = 0 to Array.length servers - 1 do
    let s = servers.(j) in
    if view.alive s then begin
      let a = view.server_available s in
      if !n = 0 then begin
        min_avail := Vec.copy a;
        max_avail := Vec.copy a
      end
      else begin
        let lo = !min_avail and hi = !max_avail in
        for i = 0 to Array.length a - 1 do
          let x = a.(i) in
          if x < lo.(i) then lo.(i) <- x;
          if x > hi.(i) then hi.(i) <- x
        done
      end;
      incr n
    end
  done;
  if !n = 0 then None else Some { n_servers = !n; min_avail = !min_avail; max_avail = !max_avail }

(* Locality context of one task group: inputs of Φloc.  Υ and Γ are
   only read when a related task is placed, so a [Neutral] context
   computes neither. *)
type loc_ctx =
  | Neutral
  | Related of { server_weight : float; upsilon : int -> float; gain : Locality.Gain.t }

(* The builder's locality memo is keyed on a group's related ids
   ([tg_id :: connected]), sorted. *)
module Ids_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash ids = List.fold_left (fun h id -> (h * 31) + id) 17 ids land max_int
end)

(* A memoized context, with each key id's census stamp when it was
   computed, and the last build that used it. *)
type loc_entry = { ctx : loc_ctx; stamps : (int * int) list; mutable used : int }

(* ------------------------------------------------------------------ *)
(* Persistent builder                                                 *)
(* ------------------------------------------------------------------ *)

(* Watermark of the topology ("prefix") part of the network: everything
   up to and including the Ms/Ns/Mn nodes and topology arcs.  The
   per-round job part is a suffix appended after the mark and discarded
   by [Graph.release] at the start of the next build. *)
type prefix = { mark : Graph.mark; p_arcs : int (* forward-arc count at the mark *) }

type builder = {
  g : Graph.t;
  mutable roles : int array;  (* packed node roles, -1 = none *)
  mutable valid_n : int;  (* nodes with meaningful roles this round *)
  mutable prefix : prefix option;
  (* Topology-id -> graph-node / arc maps, -1 = absent. *)
  mutable ms_node : int array;
  mutable ns_node : int array;
  mutable mn_node : int array;
  mutable ms_arc : int array;  (* Ms -> K arc, patched on server dirt *)
  mutable mn_arc : int array;  (* Mn -> K arc, patched on switch dirt *)
  mutable tor_aggs : tor_agg option array;  (* by ToR switch id *)
  mutable tor_stamp : int array;  (* dedupe per-round ToR recomputes *)
  mutable stamp : int;
  (* Bounds on the prefix's nodes and forward arcs, its server and
     INC-capable switch counts, and its switch-switch links, counted
     once per topology ([count_prefix]); [prefix_nodes] is -1 until
     then. *)
  mutable prefix_nodes : int;
  mutable prefix_arcs : int;
  mutable n_machine_servers : int;
  mutable n_machine_switches : int;
  mutable switch_links : int;
  (* Nodes and arcs of Fig. 6's topology part that no flow can reach
     and the last full build left out ([build_prefix]). *)
  mutable omitted_nodes : int;
  mutable omitted_arcs : int;
  (* Shortcut candidates of the task group being built, in generation
     order, and their packed sort keys (see [select_shortcuts]).  Reused
     across groups and rounds. *)
  mutable sc_cost : int array;
  mutable sc_dst : int array;  (* graph node *)
  mutable sc_cap : int array;
  mutable sc_keys : int array;
  mutable sc_n : int;
  (* Locality contexts by related ids ([shared_loc_ctx]), computed
     from the one census the builder is used with. *)
  loc_memo : loc_entry Ids_tbl.t;
  mutable loc_computed : int;  (* contexts computed this build *)
  mutable loc_reused : int;  (* contexts found in the memo this build *)
  (* Stats. *)
  mutable builds : int;
  mutable full_rebuilds : int;
  mutable last_full : bool;
  mutable last_touched : int;
  mutable last_total : int;
}

let create_builder () =
  {
    g = Graph.create ();
    roles = [||];
    valid_n = 0;
    prefix = None;
    ms_node = [||];
    ns_node = [||];
    mn_node = [||];
    ms_arc = [||];
    mn_arc = [||];
    tor_aggs = [||];
    tor_stamp = [||];
    stamp = 0;
    prefix_nodes = -1;
    prefix_arcs = -1;
    n_machine_servers = 0;
    n_machine_switches = 0;
    switch_links = 0;
    omitted_nodes = 0;
    omitted_arcs = 0;
    sc_cost = [||];
    sc_dst = [||];
    sc_cap = [||];
    sc_keys = [||];
    sc_n = 0;
    loc_memo = Ids_tbl.create 16;
    loc_computed = 0;
    loc_reused = 0;
    builds = 0;
    full_rebuilds = 0;
    last_full = true;
    last_touched = 0;
    last_total = 0;
  }

let ensure_topology b node_count =
  if Array.length b.ms_node <> node_count then begin
    b.ms_node <- Array.make node_count (-1);
    b.ns_node <- Array.make node_count (-1);
    b.mn_node <- Array.make node_count (-1);
    b.ms_arc <- Array.make node_count (-1);
    b.mn_arc <- Array.make node_count (-1);
    b.tor_aggs <- Array.make node_count None;
    b.tor_stamp <- Array.make node_count (-1);
    b.prefix <- None;
    b.prefix_nodes <- -1
  end

let ensure_roles b n =
  if Array.length b.roles < n then begin
    let cap = max n (2 * Array.length b.roles) in
    let arr = Array.make cap (-1) in
    Array.blit b.roles 0 arr 0 (Array.length b.roles);
    b.roles <- arr
  end

type t = { b : builder; sink : int }

let graph t = t.b.g

let role_opt t v =
  if v >= 0 && v < t.b.valid_n && t.b.roles.(v) >= 0 then Some (decode_role t.b.roles.(v))
  else None

let role t v =
  match role_opt t v with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Flow_network.role: unknown node %d" v)

let size t =
  (Graph.node_count t.b.g + t.b.omitted_nodes, Graph.arc_count t.b.g + t.b.omitted_arcs)

type build_stats = {
  full : bool;
  touched_arcs : int;
  total_arcs : int;
  builds : int;
  full_rebuilds : int;
}

let stats t =
  {
    full = t.b.last_full;
    touched_arcs = t.b.last_touched;
    total_arcs = t.b.last_total;
    builds = t.b.builds;
    full_rebuilds = t.b.full_rebuilds;
  }

(* The locality context of a group whose related ids are [related].
   Only [shared_loc_ctx] calls it. *)
let loc_ctx (view : View.t) census ~(params : Cost_model.params) related =
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

(* The locality context of a task group, shared by every group with the
   same related ids ([tg_id :: connected], sorted) in this build, and
   reused by later builds while the census stamp of each of those ids is
   unchanged (docs/PERFORMANCE.md, "Why the memo is exact"). *)
let shared_loc_ctx b view census ~params (tg : Poly_req.task_group) =
  let ids = List.sort Int.compare (tg.Poly_req.tg_id :: tg.Poly_req.connected) in
  match Ids_tbl.find_opt b.loc_memo ids with
  | Some e
    when List.for_all
           (fun (id, stamp) -> Int.equal (Locality.Task_census.stamp census ~tg_id:id) stamp)
           e.stamps ->
      e.used <- b.builds;
      b.loc_reused <- b.loc_reused + 1;
      e.ctx
  | _ ->
      let ctx = loc_ctx view census ~params ids in
      let stamps = List.map (fun id -> (id, Locality.Task_census.stamp census ~tg_id:id)) ids in
      Ids_tbl.replace b.loc_memo ids { ctx; stamps; used = b.builds };
      b.loc_computed <- b.loc_computed + 1;
      ctx

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

let ms_cost (view : View.t) s (params : Cost_model.params) =
  Cost_model.ms_to_k ~capacity:view.server_capacity ~available:(view.server_available s) params

let mn_cost (view : View.t) s (params : Cost_model.params) =
  Cost_model.mn_to_k
    ~capacity:(Sharing.live_capacity view.sharing)
    ~available:(Sharing.live_available view.sharing s)
    ~phi_tor:(Cost_model.phi_tor view.topo ~switch:s)
    ~phi_floor:
      (Cost_model.phi_floor_p
         ~active:(Sharing.n_active view.sharing s)
         ~max_possible:(Sharing.n_supported view.sharing s))
    params

(* What [build_prefix] creates when every node is alive, and so a
   bound on it otherwise: the sink; per server an Ms node and its Ms→K
   arc; per ToR an Ns node; per supported switch an Mn node with its
   Mn→K arc; and per server link one Ns→Ms arc.  The switch-switch
   links are counted for [size] only. *)
let count_prefix b (view : View.t) =
  let topo = view.topo in
  let servers = Array.length (Fat_tree.servers topo) in
  let switches = Fat_tree.switches topo in
  let tors = Array.length (Fat_tree.tor_switches topo) in
  let supported = ref 0 and server_links = ref 0 and switch_links = ref 0 in
  Array.iter
    (fun s ->
      if Sharing.n_supported view.sharing s > 0 then incr supported;
      List.iter
        (fun child -> incr (if Fat_tree.is_server topo child then server_links else switch_links))
        (Fat_tree.children topo s))
    switches;
  b.prefix_nodes <- 1 + servers + tors + !supported;
  b.prefix_arcs <- servers + !supported + !server_links;
  b.n_machine_servers <- servers;
  b.n_machine_switches <- !supported;
  b.switch_links <- !switch_links;
  b.omitted_nodes <- (2 * Array.length switches) - tors

(* Sizes the arena of a full build once, before its first arc: the
   prefix bound plus a bound on the job suffix.  The suffix holds per
   job a P node and at most an F node, with the F→P, P→K and S→F arcs;
   per group a G node, one G→P or F→G arc, and its kept shortcuts: at
   most [max_shortcuts], and at most one per server (a ToR aggregate
   stands for at least one) or per INC-capable switch; and the super
   selector.  A patched build keeps the arena it has, which already
   holds the prefix and earlier suffixes, and grows it by doubling only
   when a suffix outgrows them: the bound is loose for a long queue,
   and reserving it every round would size the arena by the bound
   rather than by the arcs built. *)
let reserve_full b (view : View.t) ~(params : Cost_model.params) selected =
  if b.prefix_nodes < 0 then count_prefix b view;
  let kept n = min (max 0 params.max_shortcuts) n + 1 in
  let nodes = ref (b.prefix_nodes + 1) and arcs = ref b.prefix_arcs in
  List.iter
    (fun (_, tgs) ->
      nodes := !nodes + 2;
      arcs := !arcs + 3;
      List.iter
        (fun (ts : Pending.tg_state) ->
          incr nodes;
          arcs :=
            !arcs
            +
            match ts.tg.Poly_req.kind with
            | Poly_req.Server_tg -> kept b.n_machine_servers
            | Poly_req.Network_tg _ -> kept b.n_machine_switches)
        tgs)
    selected;
  Graph.reserve b.g ~nodes:!nodes ~arcs:!arcs;
  ensure_roles b !nodes

(* Rebuild the topology prefix from scratch: sink, machine nodes for
   alive servers / supported switches, the ToR aggregators, and their
   arcs down to the servers.  That is Fig. 6's topology part restricted
   to what a shortcut can reach: every shortcut ends at a ToR's Ns, an
   Ms or an Mn, so the Nn copy, the Ns of aggregation and core switches
   and the arcs between switches could never carry flow, and [size]
   adds them back by count only.  Node and arc creation order is the
   contract here — the patch path below reuses these ids, so any
   reordering breaks the full-vs-incremental identity. *)
let build_prefix b (view : View.t) ~(params : Cost_model.params) mk =
  let g = b.g in
  let topo = view.topo in
  let node_count = Fat_tree.node_count topo in
  Graph.clear g;
  Array.fill b.ms_node 0 node_count (-1);
  Array.fill b.ns_node 0 node_count (-1);
  Array.fill b.mn_node 0 node_count (-1);
  Array.fill b.ms_arc 0 node_count (-1);
  Array.fill b.mn_arc 0 node_count (-1);
  let sink = mk Sink in
  (* Dead servers get no machine node at all: without an Ms→K arc no
     path can end there, and the ToR topology arcs below skip them. *)
  Array.iter
    (fun s ->
      if view.View.alive s then begin
        let v = mk (Machine_server s) in
        b.ms_node.(s) <- v;
        b.ms_arc.(s) <- Graph.add_arc g ~src:v ~dst:sink ~cap:1 ~cost:(ms_cost view s params)
      end)
    (Fat_tree.servers topo);
  let tors = Fat_tree.tor_switches topo in
  Array.iter (fun tor -> b.ns_node.(tor) <- mk (Aux_server tor)) tors;
  let n_mn = ref 0 in
  Array.iter
    (fun s ->
      if view.View.alive s && Sharing.n_supported view.sharing s > 0 then begin
        let v = mk (Machine_inc s) in
        b.mn_node.(s) <- v;
        b.mn_arc.(s) <- Graph.add_arc g ~src:v ~dst:sink ~cap:1 ~cost:(mn_cost view s params);
        incr n_mn
      end)
    (Fat_tree.switches topo);
  (* ToR→server arcs; a dead server has no Ms node and gets none. *)
  Array.iter
    (fun tor ->
      List.iter
        (fun server ->
          let dst = b.ms_node.(server) in
          if dst >= 0 then ignore (Graph.add_arc g ~src:b.ns_node.(tor) ~dst ~cap:1 ~cost:0))
        (Fat_tree.children topo tor))
    tors;
  (* Left out: one Nn→Mn arc per Mn and two arcs per switch-switch link. *)
  b.omitted_arcs <- !n_mn + (2 * b.switch_links);
  Array.iter (fun tor -> b.tor_aggs.(tor) <- compute_tor_agg view tor) tors;
  b.prefix <- Some { mark = Graph.mark g; p_arcs = Graph.arc_count g };
  sink

(* Rewind the graph to the topology prefix and patch only the arcs whose
   inputs changed: Ms→K / Mn→K costs of dirty nodes and the ToR
   aggregates of dirty servers.
   The resulting arrays are element-for-element identical to what
   [build_prefix] would produce from the same cluster state, which is
   what makes incremental solves bit-identical to full rebuilds. *)
let patch_prefix b (view : View.t) p d ~(params : Cost_model.params) touched =
  let g = b.g in
  let topo = view.topo in
  Graph.release g p.mark;
  (* Undo last round's flow (and any injected corruption) on prefix arcs. *)
  Graph.reset_flows g;
  Dirty.iter_servers d (fun s ->
      let a = b.ms_arc.(s) in
      if a >= 0 then begin
        Graph.set_cost g a (ms_cost view s params);
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
  b.loc_computed <- 0;
  b.loc_reused <- 0;
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

  (* --- topology part: patch the persistent prefix or rebuild it --- *)
  let touched = ref 0 in
  let dirt = view.View.dirty in
  let sink =
    match b.prefix with
    | Some p when not (Dirty.structural dirt) ->
        patch_prefix b view p dirt ~params touched;
        b.last_full <- false;
        0
    | _ ->
        reserve_full b view ~params selected;
        let sink = build_prefix b view ~params mk in
        b.last_full <- true;
        b.full_rebuilds <- b.full_rebuilds + 1;
        sink
  in
  (* The marks are folded in (or subsumed by a full rebuild); forget
     them.  Safe within a round's resilience fallback chain because
     ledgers only change after the round returns. *)
  Dirty.clear dirt;

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
            if params.locality_aware then shared_loc_ctx b view census ~params tg else Neutral
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
  (* Keep only the contexts this build used: the memo holds the live
     related sets, not every set ever seen. *)
  Ids_tbl.filter_map_inplace
    (fun _ e -> if Int.equal e.used b.builds then Some e else None)
    b.loc_memo;
  if Obs.enabled () then begin
    Obs.Registry.incr ~by:b.loc_computed (Obs.Registry.counter "hire.loc_ctx.computed");
    Obs.Registry.incr ~by:b.loc_reused (Obs.Registry.counter "hire.loc_ctx.reused")
  end;
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
  | Cost_scaling -> Flow.Cost_scaling.solve ?budget t.b.g

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
