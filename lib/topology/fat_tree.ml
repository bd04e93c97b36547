module Vec = Prelude.Vec
module Int_tbl = Prelude.Int_tbl

type kind = Core | Agg | Tor | Server

type node = { id : int; kind : kind; depth : int; pod : int; index : int }

type t = {
  k : int;
  nodes : node array;
  core : int array;
  agg : int array;
  tor : int array;
  server_ids : int array;
  switch_ids : int array;  (* core ++ agg ++ tor *)
  parents_adj : int list array;
  children_adj : int list array;
  tor_of : int array;  (* server id -> tor id; -1 for non-servers *)
  servers_under_cache : int array Int_tbl.t;
}

let create ~k =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Fat_tree.create: k must be even and >= 2";
  let half = k / 2 in
  let n_core = half * half in
  let n_agg = k * half in
  let n_tor = k * half in
  let n_server = k * half * half in
  let total = n_core + n_agg + n_tor + n_server in
  let nodes = Array.make total { id = 0; kind = Core; depth = 0; pod = -1; index = 0 } in
  let core = Array.init n_core (fun i -> i) in
  let agg = Array.init n_agg (fun i -> n_core + i) in
  let tor = Array.init n_tor (fun i -> n_core + n_agg + i) in
  let server_ids = Array.init n_server (fun i -> n_core + n_agg + n_tor + i) in
  Array.iteri
    (fun i id -> nodes.(id) <- { id; kind = Core; depth = 0; pod = -1; index = i })
    core;
  Array.iteri
    (fun i id ->
      nodes.(id) <- { id; kind = Agg; depth = 1; pod = i / half; index = i mod half })
    agg;
  Array.iteri
    (fun i id ->
      nodes.(id) <- { id; kind = Tor; depth = 2; pod = i / half; index = i mod half })
    tor;
  Array.iteri
    (fun i id ->
      (* Server index within its ToR; pod derived from the ToR. *)
      let tor_linear = i / half in
      nodes.(id) <-
        { id; kind = Server; depth = 3; pod = tor_linear / half; index = i mod half })
    server_ids;
  let parents_adj = Array.make total [] in
  let children_adj = Array.make total [] in
  let tor_of = Array.make total (-1) in
  (* agg (p, j) <-> cores in group j *)
  Array.iter
    (fun a ->
      let j = nodes.(a).index in
      for c = j * half to (j * half) + half - 1 do
        parents_adj.(a) <- core.(c) :: parents_adj.(a);
        children_adj.(core.(c)) <- a :: children_adj.(core.(c))
      done)
    agg;
  (* tor (p, i) <-> all aggs of pod p *)
  Array.iter
    (fun t_id ->
      let p = nodes.(t_id).pod in
      for j = 0 to half - 1 do
        let a = agg.((p * half) + j) in
        parents_adj.(t_id) <- a :: parents_adj.(t_id);
        children_adj.(a) <- t_id :: children_adj.(a)
      done)
    tor;
  (* server <-> its tor *)
  Array.iteri
    (fun i s ->
      let t_id = tor.(i / half) in
      parents_adj.(s) <- [ t_id ];
      children_adj.(t_id) <- s :: children_adj.(t_id);
      tor_of.(s) <- t_id)
    server_ids;
  {
    k;
    nodes;
    core;
    agg;
    tor;
    server_ids;
    switch_ids = Array.concat [ core; agg; tor ];
    parents_adj;
    children_adj;
    tor_of;
    servers_under_cache = Int_tbl.create 64;
  }

let create_leaf_spine ~spines ~leafs ~servers_per_leaf =
  if spines <= 0 || leafs <= 0 || servers_per_leaf <= 0 then
    invalid_arg "Fat_tree.create_leaf_spine: all counts must be positive";
  let n_server = leafs * servers_per_leaf in
  let total = spines + leafs + n_server in
  let nodes = Array.make total { id = 0; kind = Core; depth = 0; pod = -1; index = 0 } in
  let core = Array.init spines (fun i -> i) in
  let tor = Array.init leafs (fun i -> spines + i) in
  let server_ids = Array.init n_server (fun i -> spines + leafs + i) in
  Array.iteri
    (fun i id -> nodes.(id) <- { id; kind = Core; depth = 0; pod = -1; index = i })
    core;
  (* Each leaf is its own pod: two servers share a subtree iff they share
     the leaf. *)
  Array.iteri
    (fun i id -> nodes.(id) <- { id; kind = Tor; depth = 2; pod = i; index = 0 })
    tor;
  Array.iteri
    (fun i id ->
      nodes.(id) <-
        { id; kind = Server; depth = 3; pod = i / servers_per_leaf; index = i mod servers_per_leaf })
    server_ids;
  let parents_adj = Array.make total [] in
  let children_adj = Array.make total [] in
  let tor_of = Array.make total (-1) in
  Array.iter
    (fun leaf ->
      Array.iter
        (fun spine ->
          parents_adj.(leaf) <- spine :: parents_adj.(leaf);
          children_adj.(spine) <- leaf :: children_adj.(spine))
        core)
    tor;
  Array.iteri
    (fun i s ->
      let leaf = tor.(i / servers_per_leaf) in
      parents_adj.(s) <- [ leaf ];
      children_adj.(leaf) <- s :: children_adj.(leaf);
      tor_of.(s) <- leaf)
    server_ids;
  {
    k = 0;
    nodes;
    core;
    agg = [||];
    tor;
    server_ids;
    switch_ids = Array.append core tor;
    parents_adj;
    children_adj;
    tor_of;
    servers_under_cache = Int_tbl.create 64;
  }

let k t = t.k
let node_count t = Array.length t.nodes

let node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Fat_tree.node: bad id %d" id);
  t.nodes.(id)

let kind t id = (node t id).kind
let depth t id = (node t id).depth
let is_server t id = kind t id = Server
let is_switch t id = kind t id <> Server
let servers t = t.server_ids

let switches t = t.switch_ids

let tor_switches t = t.tor

let tor_of_server t id =
  if not (is_server t id) then invalid_arg "Fat_tree.tor_of_server: not a server";
  t.tor_of.(id)

let parents t id = (ignore (node t id)); t.parents_adj.(id)
let children t id = (ignore (node t id)); t.children_adj.(id)
let neighbors t id = parents t id @ children t id

let servers_under t id =
  ignore (node t id);
  match Int_tbl.find_opt t.servers_under_cache id with
  | Some arr -> arr
  | None ->
      let acc = ref [] in
      let rec go v =
        if is_server t v then acc := v :: !acc
        else List.iter go (List.sort_uniq Int.compare t.children_adj.(v))
      in
      go id;
      let arr = Array.of_list (List.sort_uniq Int.compare !acc) in
      Int_tbl.replace t.servers_under_cache id arr;
      arr

(* The ToR "address" of a node when it has one: servers and ToRs map to a
   concrete ToR id; aggs and cores do not. *)
let tor_address t id =
  match kind t id with
  | Server -> Some t.tor_of.(id)
  | Tor -> Some id
  | Agg | Core -> None

let lca_depth t a b =
  let na = node t a and nb = node t b in
  if a = b then na.depth
  else if na.kind = Core || nb.kind = Core then 0
  else if na.pod <> nb.pod then 0
  else begin
    (* Same pod, neither core. *)
    match (na.kind, nb.kind) with
    | Agg, Agg -> 0 (* no single agg subtree holds two aggs *)
    | Agg, _ | _, Agg -> 1
    | _ -> (
        match (tor_address t a, tor_address t b) with
        | Some ta, Some tb when ta = tb -> 2
        | _ -> 1)
  end

let cover_depth t nodes =
  match nodes with
  | [] -> invalid_arg "Fat_tree.cover_depth: empty"
  | [ x ] -> depth t x
  | xs ->
      (* Minimum pairwise LCA depth; O(n²) is fine for job-sized sets. *)
      let arr = Array.of_list xs in
      let d = ref 3 in
      Array.iteri
        (fun i x ->
          for j = i + 1 to Array.length arr - 1 do
            let l = lca_depth t x arr.(j) in
            if l < !d then d := l
          done)
        arr;
      !d

let detour t ~servers ~switches =
  match (servers, switches) with
  | [], _ | _, [] -> 0
  | _ ->
      let ds = cover_depth t servers in
      let dall = cover_depth t (servers @ switches) in
      max 0 (ds - dall)

let pp fmt t =
  if Array.length t.agg = 0 then
    Format.fprintf fmt "leaf-spine: %d spines, %d leafs, %d servers" (Array.length t.core)
      (Array.length t.tor) (Array.length t.server_ids)
  else
    Format.fprintf fmt "fat-tree k=%d: %d cores, %d aggs, %d tors, %d servers" t.k
      (Array.length t.core) (Array.length t.agg) (Array.length t.tor)
      (Array.length t.server_ids)
