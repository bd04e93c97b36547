(* Forward-star adjacency with paired residual arcs.  Arc 2k is the k-th
   user arc, arc 2k+1 its residual twin.  All per-arc attributes live in
   growable parallel int arrays.

   Each node has two adjacency chains sharing one [next] array: its
   forward arcs link from [head], the residual twins leaving it from
   [in_head].  An arc is prepended to its chain when it is created and
   [release] only drops the newest ids, so both chains run in decreasing
   arc id, and merging them by id ([iter_out]) yields the order a single
   list of all residual arcs would have.  The SSP solver walks the
   forward chain alone plus the twins it knows to have capacity
   (lib/flow/mcmf.ml), skipping the zero-capacity twins that make up
   most of a scheduling network's residual arcs.

   The arena is designed for reuse across solver rounds: [clear] empties
   it without freeing, and [mark]/[release] snapshot and restore a
   prefix so a persistent caller (lib/hire/flow_network.ml) can keep a
   long-lived topology part and rebuild only the per-round suffix. *)

type arc = int

type t = {
  mutable n : int;                 (* node count *)
  mutable m : int;                 (* residual arc count = 2 * forward arcs *)
  mutable head : int array;        (* first forward arc leaving the node, -1 if none *)
  mutable in_head : int array;     (* first residual twin leaving the node, -1 if none *)
  mutable supply_arr : int array;
  mutable next : int array;        (* next arc of the same chain, -1 at the end *)
  mutable to_ : int array;         (* arc destination *)
  mutable cap : int array;         (* remaining residual capacity *)
  mutable cost_arr : int array;
  mutable orig_cap : int array;    (* initial capacity, for flow/reset *)
  mutable n_negative : int;        (* forward arcs with cost < 0 *)
}

let create ?(node_hint = 16) ?(arc_hint = 64) () =
  let node_hint = max 1 node_hint and arc_hint = max 1 (2 * arc_hint) in
  {
    n = 0;
    m = 0;
    head = Array.make node_hint (-1);
    in_head = Array.make node_hint (-1);
    supply_arr = Array.make node_hint 0;
    next = Array.make arc_hint (-1);
    to_ = Array.make arc_hint 0;
    cap = Array.make arc_hint 0;
    cost_arr = Array.make arc_hint 0;
    orig_cap = Array.make arc_hint 0;
    n_negative = 0;
  }

let grow_int_array arr cap fill =
  if Array.length arr >= cap then arr
  else begin
    let narr = Array.make cap fill in
    Array.blit arr 0 narr 0 (Array.length arr);
    narr
  end

(* The target capacity is computed once so all parallel arrays grow to
   the same size in one pass; doubling each independently would repeat
   the blits and let lengths drift apart. *)
let ensure_node_capacity t len =
  if Array.length t.head < len then begin
    let cap = max len (2 * Array.length t.head) in
    t.head <- grow_int_array t.head cap (-1);
    t.in_head <- grow_int_array t.in_head cap (-1);
    t.supply_arr <- grow_int_array t.supply_arr cap 0
  end

let ensure_arc_capacity t len =
  if Array.length t.next < len then begin
    let cap = max len (2 * Array.length t.next) in
    t.next <- grow_int_array t.next cap (-1);
    t.to_ <- grow_int_array t.to_ cap 0;
    t.cap <- grow_int_array t.cap cap 0;
    t.cost_arr <- grow_int_array t.cost_arr cap 0;
    t.orig_cap <- grow_int_array t.orig_cap cap 0
  end

let reserve t ~nodes ~arcs =
  ensure_node_capacity t nodes;
  ensure_arc_capacity t (2 * arcs)

let add_node t =
  ensure_node_capacity t (t.n + 1);
  let id = t.n in
  t.head.(id) <- -1;
  t.in_head.(id) <- -1;
  t.supply_arr.(id) <- 0;
  t.n <- t.n + 1;
  id

let node_count t = t.n
let arc_count t = t.m / 2

let check_node t v name =
  if v < 0 || v >= t.n then invalid_arg (Printf.sprintf "Graph.%s: bad node %d" name v)

let add_half t ~src ~dst ~cap ~cost =
  let a = t.m in
  ensure_arc_capacity t (a + 1);
  t.to_.(a) <- dst;
  t.cap.(a) <- cap;
  t.orig_cap.(a) <- cap;
  t.cost_arr.(a) <- cost;
  if a land 1 = 0 then begin
    t.next.(a) <- t.head.(src);
    t.head.(src) <- a
  end
  else begin
    t.next.(a) <- t.in_head.(src);
    t.in_head.(src) <- a
  end;
  t.m <- t.m + 1;
  a

let add_arc t ~src ~dst ~cap ~cost =
  check_node t src "add_arc";
  check_node t dst "add_arc";
  if cap < 0 then invalid_arg "Graph.add_arc: negative capacity";
  let fwd = add_half t ~src ~dst ~cap ~cost in
  let (_ : arc) = add_half t ~src:dst ~dst:src ~cap:0 ~cost:(-cost) in
  if cost < 0 then t.n_negative <- t.n_negative + 1;
  fwd

let set_supply t v s =
  check_node t v "set_supply";
  t.supply_arr.(v) <- s

let supply t v =
  check_node t v "supply";
  t.supply_arr.(v)

let total_positive_supply t =
  let acc = ref 0 in
  for v = 0 to t.n - 1 do
    if t.supply_arr.(v) > 0 then acc := !acc + t.supply_arr.(v)
  done;
  !acc

let rev a = a lxor 1
let is_forward a = a land 1 = 0

let dst t a = t.to_.(a)
let src t a = t.to_.(rev a)
let cost t a = t.cost_arr.(a)
let capacity t a = t.orig_cap.(a)
let residual_cap t a = t.cap.(a)

let flow t a =
  if not (is_forward a) then invalid_arg "Graph.flow: not a forward arc";
  t.orig_cap.(a) - t.cap.(a)

let push t a amount =
  if amount < 0 || amount > t.cap.(a) then
    invalid_arg
      (Printf.sprintf "Graph.push: amount %d exceeds residual capacity %d on arc %d" amount
         t.cap.(a) a);
  t.cap.(a) <- t.cap.(a) - amount;
  t.cap.(rev a) <- t.cap.(rev a) + amount

let corrupt_flow t a delta =
  if not (is_forward a) then invalid_arg "Graph.corrupt_flow: not a forward arc";
  t.cap.(a) <- t.cap.(a) - delta;
  t.cap.(rev a) <- t.cap.(rev a) + delta

(* ------------------------------------------------------------------ *)
(* In-place patching (incremental network maintenance)                 *)
(* ------------------------------------------------------------------ *)

let has_negative_cost t = t.n_negative > 0

let set_cost t a c =
  if not (is_forward a) then invalid_arg "Graph.set_cost: not a forward arc";
  if a >= t.m then invalid_arg "Graph.set_cost: arc out of range";
  let old = t.cost_arr.(a) in
  if old <> c then begin
    if old < 0 then t.n_negative <- t.n_negative - 1;
    if c < 0 then t.n_negative <- t.n_negative + 1;
    t.cost_arr.(a) <- c;
    t.cost_arr.(rev a) <- -c
  end

let clear t =
  t.n <- 0;
  t.m <- 0;
  t.n_negative <- 0

type mark = {
  mk_n : int;
  mk_m : int;
  mk_head : int array;
  mk_in_head : int array;
  mk_supply : int array;
  mk_n_negative : int;
}

(* Both head-array prefixes must be part of the snapshot: suffix arcs
   leave earlier nodes (forward chains) and their residual twins are
   linked into the chains of earlier nodes too, so truncating [m] alone
   would leave dangling arc ids at the front of those chains. *)
let mark t =
  {
    mk_n = t.n;
    mk_m = t.m;
    mk_head = Array.sub t.head 0 t.n;
    mk_in_head = Array.sub t.in_head 0 t.n;
    mk_supply = Array.sub t.supply_arr 0 t.n;
    mk_n_negative = t.n_negative;
  }

let release t mk =
  if mk.mk_n > t.n || mk.mk_m > t.m then
    invalid_arg "Graph.release: mark does not precede the current state";
  t.n <- mk.mk_n;
  t.m <- mk.mk_m;
  Array.blit mk.mk_head 0 t.head 0 mk.mk_n;
  Array.blit mk.mk_in_head 0 t.in_head 0 mk.mk_n;
  Array.blit mk.mk_supply 0 t.supply_arr 0 mk.mk_n;
  t.n_negative <- mk.mk_n_negative

(* Deep snapshot: same node/arc ids, fully private arrays.  Arrays are
   trimmed to the live prefix so a snapshot of a small round taken from
   a large reused arena stays small; mutating either copy (including
   solving on it, which moves residual capacities) never shows through
   to the other. *)
let copy t =
  {
    n = t.n;
    m = t.m;
    head = Array.sub t.head 0 t.n;
    in_head = Array.sub t.in_head 0 t.n;
    supply_arr = Array.sub t.supply_arr 0 t.n;
    next = Array.sub t.next 0 t.m;
    to_ = Array.sub t.to_ 0 t.m;
    cap = Array.sub t.cap 0 t.m;
    cost_arr = Array.sub t.cost_arr 0 t.m;
    orig_cap = Array.sub t.orig_cap 0 t.m;
    n_negative = t.n_negative;
  }

(* Merge of the two chains by decreasing id.  A forward and a twin id
   never tie (even vs odd), and an exhausted chain reads -1, below every
   id of the other. *)
let iter_out t v f =
  check_node t v "iter_out";
  let a = ref t.head.(v) and b = ref t.in_head.(v) in
  while !a >= 0 || !b >= 0 do
    if !a > !b then begin
      let x = !a in
      a := t.next.(x);
      f x
    end
    else begin
      let x = !b in
      b := t.next.(x);
      f x
    end
  done

let iter_arcs t f =
  let a = ref 0 in
  while !a < t.m do
    f !a;
    a := !a + 2
  done

module Raw = struct
  let forward_head t = t.head
  let next t = t.next
  let dst t = t.to_
  let cap t = t.cap
  let cost t = t.cost_arr
end

let reset_flows t =
  for a = 0 to t.m - 1 do
    t.cap.(a) <- t.orig_cap.(a)
  done

let flow_cost t =
  let acc = ref 0 in
  iter_arcs t (fun a -> acc := !acc + (flow t a * t.cost_arr.(a)));
  !acc

let conserves t =
  let balance = Array.make t.n 0 in
  iter_arcs t (fun a ->
      let f = flow t a in
      balance.(src t a) <- balance.(src t a) + f;
      balance.(dst t a) <- balance.(dst t a) - f);
  let bad = ref None in
  for v = t.n - 1 downto 0 do
    if balance.(v) <> t.supply_arr.(v) then bad := Some v
  done;
  match !bad with None -> Ok t.n | Some v -> Error v

let pp fmt t =
  Format.fprintf fmt "flow graph: %d nodes, %d arcs@." t.n (arc_count t);
  iter_arcs t (fun a ->
      Format.fprintf fmt "  %d -> %d  cap=%d cost=%d flow=%d@." (src t a) (dst t a)
        (capacity t a) (cost t a) (flow t a))
