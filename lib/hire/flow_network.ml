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
   rule for subtree shortcuts; the upper bound prices them.  A record
   is never mutated once made, and ToRs whose aggregates are
   bit-identical ([same_agg]) may share one: [build_prefix] gives a run
   of such consecutive ToRs one record, [patch_prefix] keeps a ToR's
   record while its aggregate stays the same, and [price_tor] prices a
   record once per run (docs/PERFORMANCE.md, "Priced once per run"). *)
type tor_agg = { n_servers : int; min_avail : Vec.t; max_avail : Vec.t }

(* Shares no record with any ToR: the run cache's empty key. *)
let no_agg = { n_servers = 0; min_avail = [||]; max_avail = [||] }

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
   computes neither.  A [Related] one holds Φloc at every ToR, the ToR
   at offset [j] from the first at [tor_phi.(j)] ([price_tor] reads
   it), and Υ, Γ and the weight for the servers of mixed ToRs and the
   switches of INC groups (docs/PERFORMANCE.md, "Shared locality
   context"). *)
type loc_ctx =
  | Neutral
  | Related of {
      server_weight : float;
      upsilon : int -> float;
      gain : Locality.Gain.t;
      tor0 : int;
      tor_phi : float array;
    }

(* The builder's locality memo is keyed on a group's related ids
   ([tg_id :: connected]), sorted. *)
module Ids_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash ids = List.fold_left (fun h id -> (h * 31) + id) 17 ids land max_int
end)

(* A memoized context, with each key id's census stamp when it was
   computed, and the last build that used it (or found it valid). *)
type loc_entry = { ctx : loc_ctx; stamps : (int * int) list; mutable used : int }

(* A task group's shortcut candidates: the buffer in generation order,
   cut into one segment per scanned ToR (server groups) or supporting
   switch (INC groups), and the sort keys [select_shortcuts] leaves,
   the [kept] cheapest first.  The builder prices into its scratch
   [cands]; each shortcut memo entry keeps a copy with only the kept
   keys. *)
type cands = {
  mutable cost : int array;
  mutable dst : int array;  (* graph node *)
  mutable cap : int array;  (* the arc gets [min remaining cap] *)
  mutable keys : int array;
  mutable n : int;
  mutable kept : int;
  mutable seg_id : int array;  (* the ToR or switch segment [j] scanned *)
  mutable seg_end : int array;  (* [end lsl 1 lor mixed]: buffer end, mixed-ToR flag *)
  mutable n_seg : int;
  mutable segmented : bool;  (* whether segments are recorded; a full build needs none *)
  (* [price_tor]'s run cache: the last fits-all aggregate priced since
     [clear_cands], the Φloc it was priced with and the cost. *)
  mutable run_agg : tor_agg;
  mutable run_phi : float;
  mutable run_cost : int;
}

let empty_cands () =
  {
    cost = [||];
    dst = [||];
    cap = [||];
    keys = [||];
    n = 0;
    kept = 0;
    seg_id = [||];
    seg_end = [||];
    n_seg = 0;
    segmented = true;
    run_agg = no_agg;
    run_phi = 0.0;
    run_cost = 0;
  }

(* A group's shortcut memo entry ([memo_shortcuts]): its candidates as
   priced at build [priced_at], with the inputs the entry is dropped on
   when they differ. *)
type sc_entry = {
  c : cands;
  mutable loc : loc_entry option;  (* the group's locality context; [None]: Neutral *)
  mutable placed_on : int list;
  mutable phi_prio : float;
  mutable priced_at : int;
  mutable seen : int;  (* last build that looked it up *)
}

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
  (* The last build that patched a machine's ledger in (by server or
     switch id), or changed a ToR's aggregate (by ToR id); -1 = none
     since the arrays were made ([patch_prefix]).  [last_change] is
     their maximum. *)
  mutable changed_at : int array;
  mutable agg_changed_at : int array;
  mutable last_change : int;
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
  (* Shortcut candidates of the task group being priced; a memo entry
     keeps a copy. *)
  sc : cands;
  (* Shortcut memo by tg id ([memo_shortcuts]); empty after a full
     rebuild, which records nothing. *)
  groups : sc_entry Int_tbl.t;
  mutable sc_priced : int;  (* groups priced this build, in full or in part *)
  mutable sc_reused : int;  (* groups re-emitted unpriced this build *)
  (* Locality contexts by related ids ([shared_loc_ctx]), computed
     from the one census the builder is used with. *)
  loc_memo : loc_entry Ids_tbl.t;
  (* IncLocProp rows by source switch id, [None] until a context first
     needs one (they depend on the topology, γ and ξ, all fixed for a
     builder); and a mark per switch, [src_seen.(s) = loc_serial] once
     [s] is a source of the context being computed ([loc_ctx]). *)
  mutable rows : Locality.Gain.t option array;
  mutable src_seen : int array;
  mutable loc_serial : int;
  mutable loc_computed : int;  (* contexts computed this build *)
  mutable loc_reused : int;  (* contexts found in a memo this build *)
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
    changed_at = [||];
    agg_changed_at = [||];
    last_change = -1;
    prefix_nodes = -1;
    prefix_arcs = -1;
    n_machine_servers = 0;
    n_machine_switches = 0;
    switch_links = 0;
    omitted_nodes = 0;
    omitted_arcs = 0;
    sc = empty_cands ();
    groups = Int_tbl.create 64;
    sc_priced = 0;
    sc_reused = 0;
    loc_memo = Ids_tbl.create 16;
    rows = [||];
    src_seen = [||];
    loc_serial = 0;
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

(* Cost_model.phi_loc ignores Υ, Γ and the weight when nothing related
   is placed. *)
let neutral_phi_loc =
  Cost_model.phi_loc ~related_placed:false ~upsilon:1.0 ~gamma_norm:0.0 ~server_weight:0.5

(* The locality context of a group whose related ids are [related]
   (docs/PERFORMANCE.md, "Shared locality context").  The census keeps
   each group's total and switch-hosted count, so the split and Υ's
   group size are sums over [related].  Γ sums the rows of the distinct
   switches hosting a related task, each computed once per builder; with
   none it is the shared [Gain.empty].  Φloc at a ToR reads Υ through
   the staged closure only where a related group's ToR rollup names the
   ToR: elsewhere no related task is under it and Υ is 1.0, the value
   the closure gives there.  Only [shared_loc_ctx] calls it. *)
let loc_ctx b topo census ~(params : Cost_model.params) related =
  let module C = Locality.Task_census in
  let rec count placed on_switches = function
    | [] -> (placed, on_switches)
    | id :: rest ->
        count
          (placed + C.total census ~tg_id:id)
          (on_switches + C.switch_tasks census ~tg_id:id)
          rest
  in
  let placed, on_switches = count 0 0 related in
  if placed = 0 then Neutral
  else begin
    let gain =
      if on_switches = 0 then Locality.Gain.empty
      else begin
        let switches = Array.length (Fat_tree.switches topo) in
        if Array.length b.rows <> switches then begin
          b.rows <- Array.make switches None;
          b.src_seen <- Array.make switches 0
        end;
        b.loc_serial <- b.loc_serial + 1;
        let rows = ref [] in
        List.iter
          (fun id ->
            C.iter_switches census ~tg_id:id (fun s ->
                if b.src_seen.(s) <> b.loc_serial then begin
                  b.src_seen.(s) <- b.loc_serial;
                  let row =
                    match b.rows.(s) with
                    | Some row -> row
                    | None ->
                        let row =
                          Locality.Gain.of_source topo ~source:s ~gamma:params.gamma ~xi:params.xi
                        in
                        b.rows.(s) <- Some row;
                        row
                  in
                  rows := row :: !rows
                end))
          related;
        Locality.Gain.sum !rows
      end
    in
    let server_weight = float_of_int (placed - on_switches) /. float_of_int placed in
    let upsilon = Locality.upsilon topo census ~tg_ids:related ~group_size:placed in
    let phi node ~upsilon =
      Cost_model.phi_loc ~related_placed:true ~upsilon
        ~gamma_norm:(Locality.Gain.normalized gain node)
        ~server_weight
    in
    let tors = Fat_tree.tor_switches topo in
    let tor0 = tors.(0) in
    let tor_phi = Array.map (fun tor -> phi tor ~upsilon:1.0) tors in
    List.iter
      (fun id ->
        C.iter_tors census ~tg_id:id (fun tor ->
            tor_phi.(tor - tor0) <- phi tor ~upsilon:(upsilon tor)))
      related;
    Related { server_weight; upsilon; gain; tor0; tor_phi }
  end

(* The locality context of the related ids [ids] (sorted), shared by
   every group with those ids in this build, and reused by later builds
   while the census stamp of each of those ids is unchanged
   (docs/PERFORMANCE.md, "Why the memo is exact"). *)
let shared_loc_ctx b topo census ~params ids =
  match Ids_tbl.find_opt b.loc_memo ids with
  | Some e
    when List.for_all
           (fun (id, stamp) -> Int.equal (Locality.Task_census.stamp census ~tg_id:id) stamp)
           e.stamps ->
      e.used <- b.builds;
      b.loc_reused <- b.loc_reused + 1;
      e
  | _ ->
      let ctx = loc_ctx b topo census ~params ids in
      let stamps = List.map (fun id -> (id, Locality.Task_census.stamp census ~tg_id:id)) ids in
      let e = { ctx; stamps; used = b.builds } in
      Ids_tbl.replace b.loc_memo ids e;
      b.loc_computed <- b.loc_computed + 1;
      e

let related_ids (tg : Poly_req.task_group) =
  List.sort Int.compare (tg.Poly_req.tg_id :: tg.Poly_req.connected)

(* A group's locality context without sorting or hashing its related
   ids: the entry the group used last build while it is still valid,
   which one stamp walk per build settles for every group sharing it;
   otherwise [shared_loc_ctx]. *)
let group_loc (b : builder) topo census ~params tg = function
  | Some e
    when e.used = b.builds
         || List.for_all
              (fun (id, stamp) -> Int.equal (Locality.Task_census.stamp census ~tg_id:id) stamp)
              e.stamps ->
      e.used <- b.builds;
      b.loc_reused <- b.loc_reused + 1;
      e
  | _ -> shared_loc_ctx b topo census ~params (related_ids tg)

(* Φloc at a server or switch. *)
let phi_loc_at ctx node =
  match ctx with
  | Neutral -> neutral_phi_loc
  | Related { server_weight; upsilon; gain; _ } ->
      Cost_model.phi_loc ~related_placed:true ~upsilon:(upsilon node)
        ~gamma_norm:(Locality.Gain.normalized gain node)
        ~server_weight

(* Φloc at a ToR: [phi_loc_at]'s value, from the context's table. *)
let tor_phi_loc ctx tor =
  match ctx with Neutral -> neutral_phi_loc | Related r -> r.tor_phi.(tor - r.tor0)

let loc_phi b topo census ~params related =
  let ctx = (shared_loc_ctx b topo census ~params (List.sort_uniq Int.compare related)).ctx in
  fun node ->
    if Fat_tree.kind topo node = Fat_tree.Tor then tor_phi_loc ctx node else phi_loc_at ctx node

(* ------------------------------------------------------------------ *)
(* Shortcut candidates                                                *)
(* ------------------------------------------------------------------ *)

(* A group's candidates are appended to a [cands] buffer, then
   [select_shortcuts] keeps the [max_shortcuts] cheapest.  The order of
   equal costs is observable (arc order sets SSP tie-breaks, and the cut
   decides which candidates survive), so it is fixed, and pinned by the
   golden and bench digests: [Array.sort] by cost over the candidates in
   reverse generation order.  Sort key [i] packs the cost of candidate
   [n-1-i] with that index, and Prelude.Cost_sort permutes the keys as
   [Array.sort] does (docs/PERFORMANCE.md, "Why the order is exact"). *)
let push_shortcut c ~dst ~cap ~cost =
  if c.n = Array.length c.cost then begin
    let len = max 64 (2 * c.n) in
    let grow a =
      let a' = Array.make len 0 in
      Array.blit a 0 a' 0 c.n;
      a'
    in
    c.cost <- grow c.cost;
    c.dst <- grow c.dst;
    c.cap <- grow c.cap;
    c.keys <- Array.make len 0
  end;
  let i = c.n in
  c.cost.(i) <- cost;
  c.dst.(i) <- dst;
  c.cap.(i) <- cap;
  c.n <- i + 1

(* Closes a segment: the candidates pushed since the previous one came
   from scanning [id]; [mixed] marks a ToR priced server by server. *)
let end_segment c id ~mixed =
  if c.segmented then begin
    if c.n_seg = Array.length c.seg_id then begin
      let len = max 16 (2 * c.n_seg) in
      let grow a =
        let a' = Array.make len 0 in
        Array.blit a 0 a' 0 c.n_seg;
        a'
      in
      c.seg_id <- grow c.seg_id;
      c.seg_end <- grow c.seg_end
    end;
    c.seg_id.(c.n_seg) <- id;
    c.seg_end.(c.n_seg) <- (c.n lsl 1) lor Bool.to_int mixed;
    c.n_seg <- c.n_seg + 1
  end

let seg_mixed c j = c.seg_end.(j) land 1 = 1

(* Appends segment [j] of [src] to [c] unchanged. *)
let copy_segment c src j =
  for i = (if j = 0 then 0 else src.seg_end.(j - 1) lsr 1) to (src.seg_end.(j) lsr 1) - 1 do
    push_shortcut c ~dst:src.dst.(i) ~cap:src.cap.(i) ~cost:src.cost.(i)
  done;
  end_segment c src.seg_id.(j) ~mixed:(seg_mixed src j)

(* Sorts the buffered candidates and records how many of the cheapest
   are kept; [Cost_sort.index c.keys.(j)] is the buffer slot of the
   [j]-th kept one. *)
let select_shortcuts c ~(params : Cost_model.params) =
  let n = c.n in
  for i = 0 to n - 1 do
    let k = n - 1 - i in
    c.keys.(i) <- Prelude.Cost_sort.pack ~cost:c.cost.(k) ~index:k
  done;
  Prelude.Cost_sort.sort c.keys n;
  c.kept <- min n params.max_shortcuts

(* Starts a group's pricing: an empty buffer and an empty run cache. *)
let clear_cands c =
  c.n <- 0;
  c.n_seg <- 0;
  c.run_agg <- no_agg

(* The segment of ToR [tor] for a server group: one aggregate edge when
   every server under it fits, else, when some might (a mixed ToR),
   direct edges to the servers that do.  An aggregate edge's cost reads
   the group, fixed until [clear_cands], the aggregate and Φloc at
   [tor]: a ToR whose record is the cached one (so every server under
   it fits) and whose Φloc has the cached bits reuses the cached cost.
   Mixed ToRs are never cached. *)
let price_tor b (view : View.t) c ~params ~ctx ~phi_prio ~demand tor =
  let mixed =
    match b.tor_aggs.(tor) with
    | None -> false
    | Some agg when agg == c.run_agg || Vec.fits ~demand ~available:agg.min_avail ->
        let phi_loc = tor_phi_loc ctx tor in
        if
          not
            (agg == c.run_agg
            && Int64.equal (Int64.bits_of_float phi_loc) (Int64.bits_of_float c.run_phi))
        then begin
          c.run_agg <- agg;
          c.run_phi <- phi_loc;
          c.run_cost <-
            Cost_model.gs_shortcut ~demand ~available:agg.max_avail ~phi_loc ~phi_prio params
        end;
        push_shortcut c ~dst:b.ns_node.(tor) ~cap:agg.n_servers ~cost:c.run_cost;
        false
    | Some agg ->
        if Vec.fits ~demand ~available:agg.max_avail then begin
          let servers = Fat_tree.servers_under view.topo tor in
          for j = 0 to Array.length servers - 1 do
            let s = servers.(j) in
            let available = view.server_available s in
            if view.View.alive s && Vec.fits ~demand ~available then begin
              let cost =
                Cost_model.gs_shortcut ~demand ~available ~phi_loc:(phi_loc_at ctx s) ~phi_prio
                  params
              in
              push_shortcut c ~dst:b.ms_node.(s) ~cap:1 ~cost
            end
          done;
          true
        end
        else false
  in
  end_segment c tor ~mixed

let server_shortcuts b (view : View.t) c ~params ~ctx ~phi_prio (ts : Pending.tg_state) =
  let demand = ts.tg.Poly_req.demand in
  let tors = Fat_tree.tor_switches view.topo in
  clear_cands c;
  for j = 0 to Array.length tors - 1 do
    price_tor b view c ~params ~ctx ~phi_prio ~demand tors.(j)
  done;
  select_shortcuts c ~params

let rec mem_int x = function [] -> false | y :: l -> Int.equal x y || mem_int x l

(* What pricing a switch for an INC group reads of the group. *)
type inc_group = {
  service : string;
  per_instance : Vec.t;
  fresh : Vec.t;  (* [per_instance] plus the registration (Sharing.effective_demand) *)
  single_tor : bool;
  placed_on : int list;
}

let inc_group ~(params : Cost_model.params) (ts : Pending.tg_state) (ninfo : Poly_req.network_info)
    =
  (* A sharing-unaware scheduler (CoCo++ retrofit) folds the shared
     registration into every instance: no reuse benefit. *)
  let per_switch, per_instance =
    if params.sharing_aware then (ninfo.Poly_req.per_switch, ts.tg.Poly_req.demand)
    else
      ( Vec.zero (Vec.dim ts.tg.Poly_req.demand),
        Vec.add ninfo.Poly_req.per_switch ts.tg.Poly_req.demand )
  in
  {
    service = ninfo.Poly_req.service;
    per_instance;
    fresh = Vec.add per_switch per_instance;
    single_tor =
      (match ninfo.Poly_req.shape with
      | Comp_store.Single_tor -> true
      | Comp_store.Single | Comp_store.Chain | Comp_store.Tree | Comp_store.Spine_leaf -> false);
    placed_on = ts.placed_on;
  }

(* The segment of switch [s] for an INC group: at most one edge. *)
let price_switch b (view : View.t) c ~(params : Cost_model.params) ~ctx ~phi_prio g s ~avail
    ~capacity ~active ~n_active ~n_supported =
  let demand = if active then g.per_instance else g.fresh in
  if
    ((not g.single_tor) || Fat_tree.kind view.topo s = Fat_tree.Tor)
    && (not (mem_int s g.placed_on))
    && Vec.fits ~demand ~available:avail
  then begin
    let phi_new =
      if params.sharing_aware then
        Cost_model.phi_new ~service_active:active ~n_active ~max_possible:n_supported
      else 0.5
    in
    let cost =
      Cost_model.gn_shortcut ~demand ~available:avail ~capacity ~phi_loc:(phi_loc_at ctx s)
        ~phi_new ~phi_prio params
    in
    push_shortcut c ~dst:b.mn_node.(s) ~cap:1 ~cost
  end;
  end_segment c s ~mixed:false

(* [price_switch] with the arguments [Sharing.iter_supporting] passes. *)
let reprice_switch b (view : View.t) c ~params ~ctx ~phi_prio g s =
  let sharing = view.sharing in
  let n_active = Sharing.n_active sharing s in
  price_switch b view c ~params ~ctx ~phi_prio g s
    ~avail:(Sharing.live_available sharing s)
    ~capacity:(Sharing.live_capacity sharing)
    ~active:(n_active > 0 && Sharing.instances sharing ~switch:s ~service:g.service > 0)
    ~n_active
    ~n_supported:(Sharing.n_supported sharing s)

let network_shortcuts b (view : View.t) c ~params ~ctx ~phi_prio g =
  clear_cands c;
  Sharing.iter_supporting view.sharing ~service:g.service
    (fun s ~avail ~capacity ~active ~n_active ~n_supported ->
      price_switch b view c ~params ~ctx ~phi_prio g s ~avail ~capacity ~active ~n_active
        ~n_supported);
  select_shortcuts c ~params

(* Whether segment [j] of [c], priced at build [p], may price
   differently now.  A ToR segment of a server group reads the ToR's
   aggregate and, when mixed, the ledgers of the servers under it; a
   switch segment reads that switch's ledger and sharing state. *)
let stale_segment b topo ~server c j p =
  let id = c.seg_id.(j) in
  if server then
    b.agg_changed_at.(id) > p
    || seg_mixed c j
       &&
       let servers = Fat_tree.servers_under topo id in
       let rec any i =
         i < Array.length servers && (b.changed_at.(servers.(i)) > p || any (i + 1))
       in
       any 0
  else b.changed_at.(id) > p

let ctx_of = function Some l -> l.ctx | None -> Neutral

(* Copies the candidates of [src] into [dst], with the kept keys only,
   reusing [dst]'s arrays when they are long enough. *)
let store_cands dst src =
  let fit a n = if Array.length a >= n then a else Array.make n 0 in
  dst.cost <- fit dst.cost src.n;
  dst.dst <- fit dst.dst src.n;
  dst.cap <- fit dst.cap src.n;
  dst.keys <- fit dst.keys src.kept;
  dst.seg_id <- fit dst.seg_id src.n_seg;
  dst.seg_end <- fit dst.seg_end src.n_seg;
  Array.blit src.cost 0 dst.cost 0 src.n;
  Array.blit src.dst 0 dst.dst 0 src.n;
  Array.blit src.cap 0 dst.cap 0 src.n;
  Array.blit src.keys 0 dst.keys 0 src.kept;
  Array.blit src.seg_id 0 dst.seg_id 0 src.n_seg;
  Array.blit src.seg_end 0 dst.seg_end 0 src.n_seg;
  dst.n <- src.n;
  dst.kept <- src.kept;
  dst.n_seg <- src.n_seg

(* The shortcut candidates of one pending group (docs/PERFORMANCE.md,
   "Shortcut memo").  A full rebuild prices every group into the
   scratch and records nothing.  A patched build keeps each group's
   candidates in the memo: while its locality context, [placed_on] and
   Φprio are the ones it was priced with, it re-prices only the
   segments whose machines changed since, copies the others, and
   re-sorts; with no such segment it returns them as they are. *)
let memo_shortcuts b (view : View.t) census ~(params : Cost_model.params) ~phi_prio
    (ts : Pending.tg_state) =
  let tg = ts.tg in
  let price c ctx =
    match tg.Poly_req.kind with
    | Poly_req.Server_tg -> server_shortcuts b view c ~params ~ctx ~phi_prio ts
    | Poly_req.Network_tg ninfo ->
        network_shortcuts b view c ~params ~ctx ~phi_prio (inc_group ~params ts ninfo)
  in
  b.sc.segmented <- not b.last_full;
  if b.last_full then begin
    b.sc_priced <- b.sc_priced + 1;
    price b.sc
      (if params.locality_aware then
         (shared_loc_ctx b view.topo census ~params (related_ids tg)).ctx
       else Neutral);
    b.sc
  end
  else begin
    let found = Int_tbl.find_opt b.groups tg.Poly_req.tg_id in
    let loc =
      if params.locality_aware then
        Some
          (group_loc b view.topo census ~params tg
             (match found with Some e -> e.loc | None -> None))
      else None
    in
    let ctx = ctx_of loc in
    match found with
    | Some e
      when ctx_of e.loc == ctx
           && ts.placed_on == e.placed_on
           && Float.equal phi_prio e.phi_prio ->
        e.seen <- b.builds;
        let p = e.priced_at and old = e.c in
        let server = not (Poly_req.is_network tg) in
        let rec stale j =
          j < old.n_seg && (stale_segment b view.topo ~server old j p || stale (j + 1))
        in
        if b.last_change > p && stale 0 then begin
          let c = b.sc in
          let reprice =
            match tg.Poly_req.kind with
            | Poly_req.Server_tg ->
                price_tor b view c ~params ~ctx ~phi_prio ~demand:tg.Poly_req.demand
            | Poly_req.Network_tg ninfo ->
                reprice_switch b view c ~params ~ctx ~phi_prio (inc_group ~params ts ninfo)
          in
          clear_cands c;
          for j = 0 to old.n_seg - 1 do
            if stale_segment b view.topo ~server old j p then reprice old.seg_id.(j)
            else copy_segment c old j
          done;
          select_shortcuts c ~params;
          store_cands old c;
          e.priced_at <- b.builds;
          b.sc_priced <- b.sc_priced + 1
        end
        else b.sc_reused <- b.sc_reused + 1;
        e.c
    | _ ->
        price b.sc ctx;
        b.sc_priced <- b.sc_priced + 1;
        (match found with
        | Some e ->
            store_cands e.c b.sc;
            e.loc <- loc;
            e.placed_on <- ts.placed_on;
            e.phi_prio <- phi_prio;
            e.priced_at <- b.builds;
            e.seen <- b.builds
        | None ->
            let c = empty_cands () in
            store_cands c b.sc;
            Int_tbl.replace b.groups tg.Poly_req.tg_id
              {
                c;
                loc;
                placed_on = ts.placed_on;
                phi_prio;
                priced_at = b.builds;
                seen = b.builds;
              });
        b.sc
  end

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

(* Whether two ToR aggregates price every shortcut alike: same server
   count and bit-identical bounds. *)
let same_agg a b =
  let same_vec (x : Vec.t) (y : Vec.t) =
    let rec go i =
      i = Array.length x
      || Int64.equal (Int64.bits_of_float x.(i)) (Int64.bits_of_float y.(i)) && go (i + 1)
    in
    Array.length x = Array.length y && go 0
  in
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.n_servers = b.n_servers && same_vec a.min_avail b.min_avail
      && same_vec a.max_avail b.max_avail
  | None, Some _ | Some _, None -> false

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
  (* Consecutive ToRs with bit-identical aggregates share a record. *)
  let prev = ref None in
  Array.iter
    (fun tor ->
      let agg = compute_tor_agg view tor in
      let agg = if same_agg !prev agg then !prev else agg in
      b.tor_aggs.(tor) <- agg;
      prev := agg)
    tors;
  b.prefix <- Some { mark = Graph.mark g; p_arcs = Graph.arc_count g };
  sink

(* Rewind the graph to the topology prefix and patch only the arcs whose
   inputs changed: Ms→K / Mn→K costs of dirty nodes and the ToR
   aggregates of dirty servers.  The same pass stamps what the shortcut
   memo reads: every dirty server and switch, and every ToR whose
   aggregate moved; a ToR whose aggregate did not move keeps its
   record, shared or not.
   The resulting arrays are element-for-element identical to what
   [build_prefix] would produce from the same cluster state (the ToR
   aggregates equal by [same_agg], and so priced alike), which is what
   makes incremental solves bit-identical to full rebuilds. *)
let patch_prefix b (view : View.t) p d ~(params : Cost_model.params) touched =
  let g = b.g in
  let topo = view.topo in
  let now = b.builds in
  (* The stamp arrays are made by the first patch for a topology: a cold
     round, which never patches, does without them. *)
  let node_count = Fat_tree.node_count topo in
  if Array.length b.changed_at <> node_count then begin
    b.changed_at <- Array.make node_count (-1);
    b.agg_changed_at <- Array.make node_count (-1)
  end;
  Graph.release g p.mark;
  (* Undo last round's flow (and any injected corruption) on prefix arcs. *)
  Graph.reset_flows g;
  Dirty.iter_servers d (fun s ->
      b.changed_at.(s) <- now;
      b.last_change <- now;
      let a = b.ms_arc.(s) in
      if a >= 0 then begin
        Graph.set_cost g a (ms_cost view s params);
        incr touched
      end);
  Dirty.iter_switches d (fun s ->
      b.changed_at.(s) <- now;
      b.last_change <- now;
      let a = b.mn_arc.(s) in
      if a >= 0 then begin
        Graph.set_cost g a (mn_cost view s params);
        incr touched
      end);
  (* Re-aggregate only the ToRs owning a dirty server (deduped). *)
  Dirty.iter_servers d (fun s ->
      let tor = Fat_tree.tor_of_server topo s in
      if b.tor_stamp.(tor) <> now then begin
        b.tor_stamp.(tor) <- now;
        let agg = compute_tor_agg view tor in
        if not (same_agg b.tor_aggs.(tor) agg) then begin
          b.agg_changed_at.(tor) <- now;
          b.tor_aggs.(tor) <- agg
        end
      end)

let build ?builder (view : View.t) census ~jobs ~now ~(params : Cost_model.params) =
  let topo = view.topo in
  let b = match builder with Some b -> b | None -> create_builder () in
  ensure_topology b (Fat_tree.node_count topo);
  b.loc_computed <- 0;
  b.loc_reused <- 0;
  b.sc_priced <- 0;
  b.sc_reused <- 0;
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
          let c = memo_shortcuts b view census ~params ~phi_prio ts in
          if c.kept > 0 then
            Int_tbl.replace cheapest_shortcut tg.Poly_req.tg_id
              (Prelude.Cost_sort.cost c.keys.(0));
          for j = 0 to c.kept - 1 do
            let i = Prelude.Cost_sort.index c.keys.(j) in
            ignore
              (Graph.add_arc g ~src:gnode ~dst:c.dst.(i) ~cap:(Int.min ts.remaining c.cap.(i))
                 ~cost:c.cost.(i))
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
          let key = ts.Pending.flavor_key in
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
  (* And only the shortcut entries of the groups this build looked up.
     A full rebuild looks up none, so it empties the memo: node ids and
     every ledger may have moved under the entries. *)
  Int_tbl.filter_map_inplace
    (fun _ e -> if Int.equal e.seen b.builds then Some e else None)
    b.groups;
  if Obs.enabled () then begin
    Obs.Registry.incr ~by:b.loc_computed (Obs.Registry.counter "hire.loc_ctx.computed");
    Obs.Registry.incr ~by:b.loc_reused (Obs.Registry.counter "hire.loc_ctx.reused");
    Obs.Registry.incr ~by:b.sc_priced (Obs.Registry.counter "hire.shortcuts.priced");
    Obs.Registry.incr ~by:b.sc_reused (Obs.Registry.counter "hire.shortcuts.reused")
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

(* Role tags (the low 4 bits) that extraction reads. *)
let group_tag = encode_role (Group 0)
let flavor_tag = encode_role (Flavor_sel 0)
let server_tag = encode_role (Machine_server 0)
let inc_tag = encode_role (Machine_inc 0)

let extract t ~solver =
  let extract_t0 = if Obs.enabled () then Prelude.Clock.now () else 0.0 in
  let roles = t.b.roles and valid_n = t.b.valid_n in
  let placements = ref [] and flavor_picks = ref [] and n_paths = ref 0 in
  (* The payload ids of the first Group, Flavor_sel and machine role on
     the path being walked; -1 while none.  Nodes without a role are
     skipped rather than fatal: the cost-scaling backend leaves its
     virtual feasibility node in the graph, and a budget-exhausted
     partial flow may route through it. *)
  let group = ref (-1) and flavor = ref (-1) and machine = ref (-1) in
  let note v =
    if v < valid_n then begin
      let r = roles.(v) in
      if r >= 0 then begin
        let tag = r land 15 in
        if tag = group_tag then (if !group < 0 then group := r asr 4)
        else if tag = flavor_tag then (if !flavor < 0 then flavor := r asr 4)
        else if (tag = server_tag || tag = inc_tag) && !machine < 0 then machine := r asr 4
      end
    end
  in
  Mcmf.iter_paths t.b.g (fun walk amount ->
      incr n_paths;
      group := -1;
      flavor := -1;
      machine := -1;
      walk note;
      if !flavor >= 0 && !group >= 0 then flavor_picks := (!flavor, !group) :: !flavor_picks;
      if !group >= 0 && !machine >= 0 then
        (* M→K capacity is 1, so such a path carries exactly one task. *)
        for _ = 1 to amount do
          placements := (!group, !machine) :: !placements
        done);
  if Obs.enabled () then
    Obs.Trace.emit "flow_extract"
      [
        ("paths", Obs.Trace.Int !n_paths);
        ("placements", Obs.Trace.Int (List.length !placements));
        ("flavor_picks", Obs.Trace.Int (List.length !flavor_picks));
        ("extract_s", Obs.Trace.Float (Prelude.Clock.now () -. extract_t0));
      ];
  { placements = List.rev !placements; flavor_picks = List.rev !flavor_picks; solver }

let solve_and_extract ?solver ?budget ?scratch t =
  let solver = solve_only ?solver ?budget ?scratch t in
  extract t ~solver
