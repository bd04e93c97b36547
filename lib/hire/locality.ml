module Fat_tree = Topology.Fat_tree
module Int_tbl = Prelude.Int_tbl

module Task_census = struct
  (* Per task group we keep counts by machine plus rollups by ToR and by
     pod, so [count_under] answers in O(1) for any node of the
     hierarchy.  A machine is tagged (tor, pod) as follows: servers and
     ToRs by their own ToR; aggs by their pod only; cores by neither.
     Every change to a group stamps it with the next value of the
     census-wide [clock], so equal stamps mean unchanged counts.  A
     group whose last task leaves is dropped: it reads stamp 0 and
     counts 0, as one never seen does, so the census holds only groups
     with running tasks.  [on_switches] is the sum of [by_machine] over
     switches, kept by [adjust], so a locality context reads a group's
     server/switch split without walking its machines. *)
  type group_counts = {
    by_machine : int Int_tbl.t;
    by_tor : int Int_tbl.t;
    by_pod : int Int_tbl.t;
    mutable total : int;
    mutable on_switches : int;
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
            on_switches = 0;
            stamp = 0;
          }
        in
        Int_tbl.replace t.groups tg_id g;
        g

  (* Adds [delta] to [key]'s count, dropping a count that falls to 0 or
     below; returns the change the count took. *)
  let bump tbl key delta =
    let old = match Int_tbl.find_opt tbl key with Some v -> v | None -> 0 in
    let v = old + delta in
    if v <= 0 then begin
      Int_tbl.remove tbl key;
      -old
    end
    else begin
      Int_tbl.replace tbl key v;
      delta
    end

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
    let moved = bump g.by_machine machine delta in
    if Fat_tree.is_switch t.topo machine then g.on_switches <- g.on_switches + moved;
    let tor, pod = tags t machine in
    (match tor with Some x -> ignore (bump g.by_tor x delta) | None -> ());
    (match pod with Some p -> ignore (bump g.by_pod p delta) | None -> ());
    g.total <- g.total + delta;
    if g.total < 0 then invalid_arg "Task_census: negative total";
    if g.total = 0 then Int_tbl.remove t.groups tg_id

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

  let switch_tasks t ~tg_id =
    match Int_tbl.find_opt t.groups tg_id with None -> 0 | Some g -> g.on_switches

  let iter_switches t ~tg_id f =
    match Int_tbl.find_opt t.groups tg_id with
    | Some g when g.on_switches > 0 ->
        Int_tbl.iter (fun m _ -> if Fat_tree.is_switch t.topo m then f m) g.by_machine
    | _ -> ()

  let iter_tors t ~tg_id f =
    match Int_tbl.find_opt t.groups tg_id with
    | None -> ()
    | Some g -> Int_tbl.iter (fun tor _ -> f tor) g.by_tor

  let stamp t ~tg_id =
    match Int_tbl.find_opt t.groups tg_id with None -> 0 | Some g -> g.stamp

  let machines t ~tg_id =
    match Int_tbl.find_opt t.groups tg_id with
    | None -> []
    | Some g ->
        Int_tbl.fold (fun m c acc -> (m, c) :: acc) g.by_machine []
        |> List.sort (fun (m1, c1) (m2, c2) ->
               match Int.compare m1 m2 with 0 -> Int.compare c1 c2 | c -> c)

  (* A cleared group reads stamp 0, like one never seen; re-adding it
     stamps it from the clock, above any stamp it had before. *)
  let clear_group t ~tg_id = Int_tbl.remove t.groups tg_id

  (* Checkpoint serialization (docs/JOURNAL.md).  Only the primary
     (machine, count) pairs are written — the ToR/pod rollups and totals
     are re-derived through one [adjust] per pair on restore, so a
     decoded census is structurally identical to one built live.  Groups
     and machines are written in sorted order for canonical bytes.  A
     live census never holds a zero count, so decoding rejects one, nor
     an empty group, so every group written has a pair.
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
  (* Gains by switch id: switch ids are 0 .. S-1 (Fat_tree.switches), so
     a server's id falls past the table and reads 0, as IncLocProp
     never reaches a server. *)
  type t = { table : int array; max_gain : int }

  let empty = { table = [||]; max_gain = 0 }

  (* IncLocProp (Alg. 1) from one switch: a breadth-first walk over
     switch-switch links that gives every switch at hop distance [d]
     the gain [gamma] divided [d] times by [xi], while that is above 0.
     [queue] holds the walk's switches in visit order, and [level_end]
     where the current hop distance ends in it. *)
  let of_source topo ~source ~gamma ~xi =
    if xi <= 1 then invalid_arg "Gain.of_source: xi must be > 1";
    if not (Fat_tree.is_switch topo source) then invalid_arg "Gain.of_source: not a switch";
    let n = Array.length (Fat_tree.switches topo) in
    let table = Array.make n 0 in
    let seen = Bytes.make n '\000' and queue = Array.make n 0 in
    queue.(0) <- source;
    Bytes.set seen source '\001';
    let head = ref 0 and tail = ref 1 and g = ref gamma in
    while !g > 0 && !head < !tail do
      let level_end = !tail in
      while !head < level_end do
        let u = queue.(!head) in
        incr head;
        table.(u) <- !g;
        List.iter
          (fun v ->
            if Fat_tree.is_switch topo v && Bytes.get seen v = '\000' then begin
              Bytes.set seen v '\001';
              queue.(!tail) <- v;
              incr tail
            end)
          (Fat_tree.neighbors topo u)
      done;
      g := !g / xi
    done;
    { table; max_gain = Array.fold_left Int.max 0 table }

  let sum = function
    | [] -> empty
    | [ row ] -> row
    | row :: _ as rows ->
        let table = Array.make (Array.length row.table) 0 in
        List.iter
          (fun r ->
            let t = r.table in
            for i = 0 to Array.length t - 1 do
              table.(i) <- table.(i) + t.(i)
            done)
          rows;
        { table; max_gain = Array.fold_left Int.max 0 table }

  let at t node = if node < Array.length t.table then t.table.(node) else 0

  let normalized t node =
    if t.max_gain <= 0 then 0.0 else float_of_int (at t node) /. float_of_int t.max_gain
end
