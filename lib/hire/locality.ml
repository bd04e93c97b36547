module Fat_tree = Topology.Fat_tree
module Int_tbl = Prelude.Int_tbl

module Task_census = struct
  (* Per task group we keep counts by machine plus rollups by ToR and by
     pod, so [count_under] answers in O(1) for any node of the
     hierarchy.  A machine is tagged (tor, pod) as follows: servers and
     ToRs by their own ToR; aggs by their pod only; cores by neither.
     Every change to a group stamps it with the next value of the
     census-wide [clock], so equal stamps mean unchanged counts. *)
  type group_counts = {
    by_machine : int Int_tbl.t;
    by_tor : int Int_tbl.t;
    by_pod : int Int_tbl.t;
    mutable total : int;
    mutable stamp : int;
  }

  type t = { topo : Fat_tree.t; groups : group_counts Int_tbl.t; mutable clock : int }

  let create topo = { topo; groups = Int_tbl.create 64; clock = 0 }

  let group t tg_id =
    match Int_tbl.find_opt t.groups tg_id with
    | Some g -> g
    | None ->
        let g =
          {
            by_machine = Int_tbl.create 8;
            by_tor = Int_tbl.create 8;
            by_pod = Int_tbl.create 8;
            total = 0;
            stamp = 0;
          }
        in
        Int_tbl.replace t.groups tg_id g;
        g

  let bump tbl key delta =
    let v = (match Int_tbl.find_opt tbl key with Some v -> v | None -> 0) + delta in
    if v <= 0 then Int_tbl.remove tbl key else Int_tbl.replace tbl key v

  let tags t machine =
    let open Fat_tree in
    match kind t.topo machine with
    | Server -> (Some (tor_of_server t.topo machine), Some (node t.topo machine).pod)
    | Tor -> (Some machine, Some (node t.topo machine).pod)
    | Agg -> (None, Some (node t.topo machine).pod)
    | Core -> (None, None)

  let adjust t ~tg_id ~machine delta =
    let g = group t tg_id in
    t.clock <- t.clock + 1;
    g.stamp <- t.clock;
    bump g.by_machine machine delta;
    let tor, pod = tags t machine in
    (match tor with Some x -> bump g.by_tor x delta | None -> ());
    (match pod with Some p -> bump g.by_pod p delta | None -> ());
    g.total <- g.total + delta;
    if g.total < 0 then invalid_arg "Task_census: negative total"

  let add t ~tg_id ~machine = adjust t ~tg_id ~machine 1
  let remove t ~tg_id ~machine = adjust t ~tg_id ~machine (-1)

  let count_under t ~tg_id ~node =
    match Int_tbl.find_opt t.groups tg_id with
    | None -> 0
    | Some g -> (
        let get tbl key = match Int_tbl.find_opt tbl key with Some v -> v | None -> 0 in
        match Fat_tree.kind t.topo node with
        | Fat_tree.Core -> g.total
        | Fat_tree.Agg -> get g.by_pod (Fat_tree.node t.topo node).pod
        | Fat_tree.Tor -> get g.by_tor node
        | Fat_tree.Server -> get g.by_machine node)

  let total t ~tg_id =
    match Int_tbl.find_opt t.groups tg_id with None -> 0 | Some g -> g.total

  let stamp t ~tg_id =
    match Int_tbl.find_opt t.groups tg_id with None -> 0 | Some g -> g.stamp

  let machines t ~tg_id =
    match Int_tbl.find_opt t.groups tg_id with
    | None -> []
    | Some g ->
        Int_tbl.fold (fun m c acc -> (m, c) :: acc) g.by_machine []
        |> List.sort (fun (m1, c1) (m2, c2) ->
               match Int.compare m1 m2 with 0 -> Int.compare c1 c2 | c -> c)

  let switches t ~tg_id =
    List.filter_map
      (fun (m, _) -> if Fat_tree.is_switch t.topo m then Some m else None)
      (machines t ~tg_id)

  (* A removed group reads stamp 0, like one never seen; re-adding it
     stamps it from the clock, above any stamp it had before. *)
  let clear_group t ~tg_id = Int_tbl.remove t.groups tg_id

  (* Checkpoint serialization (docs/JOURNAL.md).  Only the primary
     (machine, count) pairs are written — the ToR/pod rollups and totals
     are re-derived through one [adjust] per pair on restore, so a
     decoded census is structurally identical to one built live.  Groups
     and machines are written in sorted order for canonical bytes.  A
     live census never holds a zero count, so decoding rejects one.
     Decoding keeps the clock running (monotone, one tick per pair), so
     every decoded group gets a stamp above any it had and every dropped
     one reads 0. *)
  let encode_state t e =
    let module Enc = Prelude.Codec.Enc in
    let group_ids =
      Int_tbl.fold (fun tg_id _ acc -> tg_id :: acc) t.groups [] |> List.sort Int.compare
    in
    Enc.list e
      (fun e tg_id ->
        Enc.int e tg_id;
        Enc.list e
          (fun e (m, c) ->
            Enc.int e m;
            Enc.uint e c)
          (machines t ~tg_id))
      group_ids

  let decode_state t d =
    let module Dec = Prelude.Codec.Dec in
    Int_tbl.reset t.groups;
    let (_ : unit list) =
      Dec.list d (fun d ->
          let tg_id = Dec.int d in
          List.iter
            (fun (machine, c) -> adjust t ~tg_id ~machine c)
            (Dec.list d (fun d ->
                 let m = Dec.int d in
                 if m < 0 || m >= Fat_tree.node_count t.topo then
                   raise
                     (Prelude.Codec.Error
                        (Printf.sprintf "Task_census: machine %d out of range" m));
                 let c = Dec.uint d in
                 if c = 0 then
                   raise
                     (Prelude.Codec.Error
                        (Printf.sprintf "Task_census: zero count on machine %d" m));
                 (m, c))))
    in
    ()
end

let upsilon topo census ~tg_ids ~group_size =
  if group_size <= 0 then fun _ -> 1.0
  else begin
    let total_related n =
      List.fold_left
        (fun acc tg_id -> acc + Task_census.count_under census ~tg_id ~node:n)
        0 tg_ids
    in
    let gs = float_of_int group_size in
    let memo = Int_tbl.create 16 in
    (* Recursive Eq. 6: average over children of "related tasks missing
       from that child's subtree".  A subtree whose census rollup is 0
       holds no related task anywhere below it (the rollups also count
       switch-hosted tasks, so 0 is conservative): each of its server
       leaves is gs/gs = 1.0 exactly, and n copies of 1.0 summed and
       divided by n are 1.0 exactly, so answering 1.0 without the walk
       gives the walk's bits.  Every value is memoized, servers too, so
       a subtree shared by many queried nodes is walked once and a node
       queried again costs one lookup instead of a census read per
       related group. *)
    let rec go n =
      match Int_tbl.find_opt memo n with
      | Some v -> v
      | None ->
          let related = total_related n in
          let v =
            if related = 0 then 1.0
            else if Fat_tree.is_server topo n then
              float_of_int (max 0 (group_size - related)) /. gs
            else
              match Fat_tree.children topo n with
              | [] -> 1.0
              | kids ->
                  List.fold_left (fun acc kid -> acc +. go kid) 0.0 kids
                  /. float_of_int (List.length kids)
          in
          Int_tbl.replace memo n v;
          v
    in
    fun node -> Float.max 0.0 (Float.min 1.0 (go node))
  end

module Gain = struct
  type t = { table : int Int_tbl.t; max_gain : int }

  let inc_loc_prop topo table ~start ~gamma ~xi =
    let visited = Int_tbl.create 32 in
    let visit = ref [ start ] in
    let g = ref gamma in
    while !g > 0 && !visit <> [] do
      let next = ref [] in
      List.iter
        (fun n ->
          if not (Int_tbl.mem visited n) then begin
            Int_tbl.replace visited n ();
            let cur = match Int_tbl.find_opt table n with Some v -> v | None -> 0 in
            Int_tbl.replace table n (cur + !g);
            List.iter
              (fun nb -> if Topology.Fat_tree.is_switch topo nb then next := nb :: !next)
              (Topology.Fat_tree.neighbors topo n)
          end)
        !visit;
      visit := List.filter (fun n -> not (Int_tbl.mem visited n)) !next;
      g := !g / xi
    done

  let compute topo census ~related ~gamma ~xi =
    if xi <= 1 then invalid_arg "Gain.compute: xi must be > 1";
    let table = Int_tbl.create 64 in
    let sources =
      List.concat_map (fun tg_id -> Task_census.switches census ~tg_id) related
      |> List.sort_uniq Int.compare
    in
    List.iter (fun s -> inc_loc_prop topo table ~start:s ~gamma ~xi) sources;
    let max_gain = Int_tbl.fold (fun _ v acc -> max v acc) table 0 in
    { table; max_gain }

  let at t node = match Int_tbl.find_opt t.table node with Some v -> v | None -> 0

  let normalized t node =
    if t.max_gain <= 0 then 0.0 else float_of_int (at t node) /. float_of_int t.max_gain
end
