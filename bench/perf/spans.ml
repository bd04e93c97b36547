(* In-memory span recorder for the traced run.

   A span is a named interval of monotonic time with a parent: the span
   that was open when it started.  Spans opened while one cell or one
   request is current share its group id.  Every span also accumulates
   into a phase tree keyed by its path of names; the per-layer totals
   and the printed breakdown are read from that tree.  Raw records are
   kept up to [max_records] and written out as JSONL at exit; the tree
   keeps aggregating past the cap.

   Off (the default), [span] is a single branch around the call. *)

module Clock = Prelude.Clock

type record = {
  id : int;
  parent : int;  (* -1 for a top-level span *)
  group : int;
  name : string;
  t0 : float;  (* seconds since [enable] *)
  t1 : float;
}

type node = {
  name : string;
  mutable total : float;
  mutable count : int;
  kids : (string, node) Hashtbl.t;
  mutable order : node list;  (* children, most recently created first *)
}

type frame = { node : node; start : float; fid : int }

let max_records = 400_000
let new_node name = { name; total = 0.0; count = 0; kids = Hashtbl.create 4; order = [] }
let on = ref false
let root = ref (new_node "all")
let epoch = ref 0.0
let stack : frame list ref = ref []
let group = ref 0
let next_id = ref 0
let records : record list ref = ref []
let n_records = ref 0
let dropped = ref 0

let enable () =
  on := true;
  root := new_node "all";
  epoch := Clock.now ();
  stack := [];
  group := 0;
  next_id := 0;
  records := [];
  n_records := 0;
  dropped := 0

let disable () = on := false
let enabled () = !on
let set_group g = group := g

let child parent name =
  match Hashtbl.find_opt parent.kids name with
  | Some n -> n
  | None ->
      let n = new_node name in
      Hashtbl.add parent.kids name n;
      parent.order <- n :: parent.order;
      n

let enter name =
  let parent = match !stack with f :: _ -> f.node | [] -> !root in
  let fid = !next_id in
  incr next_id;
  stack := { node = child parent name; start = Clock.now (); fid } :: !stack

let leave () =
  match !stack with
  | [] -> invalid_arg "Spans.leave: no open span"
  | f :: rest ->
      let t1 = Clock.now () in
      stack := rest;
      f.node.total <- f.node.total +. (t1 -. f.start);
      f.node.count <- f.node.count + 1;
      if !n_records < max_records then begin
        let parent = match rest with p :: _ -> p.fid | [] -> -1 in
        records :=
          { id = f.fid; parent; group = !group; name = f.node.name; t0 = f.start -. !epoch;
            t1 = t1 -. !epoch }
          :: !records;
        incr n_records
      end
      else incr dropped

(* A raw record of an interval measured elsewhere, as a child of the
   innermost open span, in a group of its own.  Requests in flight
   overlap, so they stay out of the phase tree. *)
let record name ~t0 ~t1 =
  if !on && !n_records < max_records then begin
    let parent = match !stack with f :: _ -> f.fid | [] -> -1 in
    let id = !next_id in
    incr next_id;
    records := { id; parent; group = id; name; t0 = t0 -. !epoch; t1 = t1 -. !epoch } :: !records;
    incr n_records
  end

let span name f =
  if not !on then f ()
  else begin
    enter name;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Reading the tree                                                    *)
(* ------------------------------------------------------------------ *)

(* Every node of that name, at any depth: the round spans of all cells
   live under different parents. *)
let named name =
  let rec go acc (node : node) =
    let acc = if node.name = name then node :: acc else acc in
    List.fold_left go acc node.order
  in
  go [] !root

let total name = List.fold_left (fun s n -> s +. n.total) 0.0 (named name)
let count name = List.fold_left (fun s n -> s + n.count) 0 (named name)

(* Time measured inside the program (the Obs histograms) is grafted
   under the span that contains it, so the printed tree shows it as a
   child.  [graft ~under name seconds n] adds to every node named
   [under] in proportion to its share of their total. *)
let graft ~under name seconds n =
  let nodes = named under in
  let sum = List.fold_left (fun s k -> s +. k.total) 0.0 nodes in
  if sum > 0.0 && seconds > 0.0 then
    List.iter
      (fun k ->
        let share = k.total /. sum in
        let c = child k name in
        c.total <- c.total +. (seconds *. share);
        c.count <- c.count + int_of_float (Float.round (float_of_int n *. share)))
      nodes

(* A node's time not covered by its children.  Spans the benchmark opens
   around its own code (the root, "bench.*", its copy of
   [harness.prepare]) report it as [unattributed]; a layer's span reports
   it as the layer's self time. *)
let remainder node =
  let kids = List.fold_left (fun s k -> s +. k.total) 0.0 node.order in
  node.total -. kids

let is_container node =
  node == !root || String.starts_with ~prefix:"bench." node.name || node.name = "harness.prepare"

(* All unattributed time, as a share of the whole traced time. *)
let unattributed_ratio () =
  let whole = List.fold_left (fun s k -> s +. k.total) 0.0 !root.order in
  let rec go node =
    let here =
      if is_container node && node.order <> [] then Float.max 0.0 (remainder node) else 0.0
    in
    List.fold_left (fun s k -> s +. go k) here node.order
  in
  if whole > 0.0 then go !root /. whole else 0.0

(* The self time of every span of that name. *)
let self_time name =
  List.fold_left (fun s n -> s +. Float.max 0.0 (remainder n)) 0.0 (named name)

let print_tree oc =
  let whole = List.fold_left (fun s k -> s +. k.total) 0.0 !root.order in
  !root.total <- whole;
  let line depth name total count parent =
    Printf.fprintf oc "  %-*s%-*s %10.4f s %6.1f%%%s\n" (2 * depth) "" (44 - (2 * depth)) name
      total
      (if parent > 0.0 then 100.0 *. total /. parent else 100.0)
      (if count > 0 then Printf.sprintf "  x%d" count else "")
  in
  let rec go depth node =
    let kids = List.sort (fun a b -> compare b.total a.total) node.order in
    List.iter
      (fun k ->
        line depth k.name k.total k.count node.total;
        go (depth + 1) k)
      kids;
    if kids <> [] then begin
      let r = remainder node in
      let label = if is_container node then "unattributed" else node.name ^ ".self" in
      line depth label r 0 node.total
    end
  in
  Printf.fprintf oc "phase tree (host seconds, share of parent, calls):\n";
  line 0 "all" whole 0 whole;
  go 1 !root

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun r ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"group\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n" r.id
        r.parent r.group r.name r.t0 r.t1)
    (List.rev !records);
  close_out oc

let dropped () = !dropped
