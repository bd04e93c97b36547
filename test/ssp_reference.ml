(* The two reference solvers the MCMF tests compare [Flow.Mcmf.solve]
   with.  Both are successive shortest paths with Johnson potentials,
   written for clarity, with no budget, scratch or observability:

   - [classic], the historical full-settle SSP: every Dijkstra settles
     the whole reachable graph, the target is the nearest deficit found
     by a scan afterwards, and every reached potential is updated.  It
     may break ties between equally cheap paths differently from the
     production solver, so it checks objectives (shipped, cost,
     unshipped), not flows.
   - [full_scan], the production SSP as it was when its Dijkstra scanned
     every residual arc of a settled node through [Graph.iter_out], dead
     twins included: early termination at the first settled deficit in
     the canonical (distance, node) order, and settled-only potential
     updates.  The live-arc scan and the zero-length search in front of
     it must reproduce its per-arc flows bit for bit. *)

module Graph = Flow.Graph
module Int_pair = Prelude.Heap.Int_pair

type outcome = { shipped : int; unshipped : int; total_cost : int; augmentations : int }

let inf = max_int / 4

(* Potentials: zero, or from an SPFA (queue-based Bellman–Ford) pass
   from every positive-excess node when the graph has a negative-cost
   arc. *)
let potentials g excess =
  let n = Graph.node_count g in
  let pot = Array.make n 0 in
  if Graph.has_negative_cost g then begin
    let dist = Array.make n inf and in_queue = Array.make n false in
    let q = Queue.create () in
    for v = 0 to n - 1 do
      if excess.(v) > 0 then begin
        dist.(v) <- 0;
        Queue.push v q;
        in_queue.(v) <- true
      end
    done;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      in_queue.(v) <- false;
      Graph.iter_out g v (fun a ->
          if Graph.residual_cap g a > 0 then begin
            let u = Graph.dst g a in
            let nd = dist.(v) + Graph.cost g a in
            if nd < dist.(u) then begin
              dist.(u) <- nd;
              if not in_queue.(u) then begin
                Queue.push u q;
                in_queue.(u) <- true
              end
            end
          end)
    done;
    Array.iteri (fun v d -> if d < inf then pot.(v) <- d) dist
  end;
  pot

let has_supply excess = Array.exists (fun e -> e > 0) excess

(* Pushes the bottleneck of the parent chain above [target] from its
   source, and returns the amount. *)
let augment g excess parent target =
  let bottleneck = ref (-excess.(target)) and v = ref target in
  while parent.(!v) >= 0 do
    bottleneck := min !bottleneck (Graph.residual_cap g parent.(!v));
    v := Graph.src g parent.(!v)
  done;
  let source = !v in
  let amount = min !bottleneck excess.(source) in
  let v = ref target in
  while parent.(!v) >= 0 do
    Graph.push g parent.(!v) amount;
    v := Graph.src g parent.(!v)
  done;
  excess.(source) <- excess.(source) - amount;
  excess.(target) <- excess.(target) + amount;
  amount

let finish g excess ~shipped ~augmentations =
  {
    shipped;
    unshipped = Array.fold_left (fun acc e -> if e > 0 then acc + e else acc) 0 excess;
    total_cost = Graph.flow_cost g;
    augmentations;
  }

(* Multi-source Dijkstra on reduced costs that settles the whole
   reachable graph.  parent.(v) is the residual arc used to reach v, or
   -1.  Reduced costs are clamped at 0 against potentials left stale on
   unreached nodes. *)
let full_settle g excess pot dist parent heap =
  let n = Graph.node_count g in
  Array.fill dist 0 n inf;
  Array.fill parent 0 n (-1);
  Int_pair.clear heap;
  for v = 0 to n - 1 do
    if excess.(v) > 0 then begin
      dist.(v) <- 0;
      Int_pair.push heap 0 v
    end
  done;
  while not (Int_pair.is_empty heap) do
    let d = Int_pair.min_key heap in
    let v = Int_pair.pop heap in
    if d = dist.(v) then
      Graph.iter_out g v (fun a ->
          if Graph.residual_cap g a > 0 then begin
            let u = Graph.dst g a in
            let rc = Graph.cost g a + pot.(v) - pot.(u) in
            let nd = d + if rc < 0 then 0 else rc in
            if nd < dist.(u) then begin
              dist.(u) <- nd;
              parent.(u) <- a;
              Int_pair.push heap nd u
            end
          end)
  done

let classic g =
  let n = Graph.node_count g in
  let excess = Array.init n (Graph.supply g) in
  let pot = potentials g excess in
  let dist = Array.make n inf and parent = Array.make n (-1) in
  let heap = Int_pair.create () in
  let shipped = ref 0 and augmentations = ref 0 in
  let continue_ = ref (has_supply excess) in
  while !continue_ do
    full_settle g excess pot dist parent heap;
    (* Nearest reachable deficit node. *)
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if excess.(v) < 0 && dist.(v) < inf then
        if !best < 0 || dist.(v) < dist.(!best) then best := v
    done;
    if !best < 0 then continue_ := false
    else begin
      shipped := !shipped + augment g excess parent !best;
      incr augmentations;
      for u = 0 to n - 1 do
        if dist.(u) < inf then pot.(u) <- pot.(u) + dist.(u)
      done;
      if not (has_supply excess) then continue_ := false
    end
  done;
  finish g excess ~shipped:!shipped ~augmentations:!augmentations

(* [full_scan] counts the augmentations whose path had reduced length 0
   in [zero_paths] and the others in [positive_paths]: the first kind is
   what the production solver's zero-length search finds, the second
   what it hands on to its Dijkstra. *)
let zero_paths = ref 0
let positive_paths = ref 0

let full_scan g =
  let n = Graph.node_count g in
  let excess = Array.init n (Graph.supply g) in
  let pot = potentials g excess in
  let dist = Array.make n inf and parent = Array.make n (-1) in
  let h = Int_pair.create () in
  let shipped = ref 0 and augmentations = ref 0 in
  let continue_ = ref (has_supply excess) in
  while !continue_ do
    Array.fill dist 0 n inf;
    Int_pair.clear h;
    for v = 0 to n - 1 do
      if excess.(v) > 0 then begin
        dist.(v) <- 0;
        parent.(v) <- -1;
        Int_pair.push h 0 v
      end
    done;
    let settled = ref [] and target = ref (-1) in
    while !target < 0 && not (Int_pair.is_empty h) do
      let d = Int_pair.min_key h in
      let v = Int_pair.pop h in
      if d = dist.(v) then begin
        settled := v :: !settled;
        if excess.(v) < 0 then target := v
        else
          Graph.iter_out g v (fun a ->
              if Graph.residual_cap g a > 0 then begin
                let u = Graph.dst g a in
                let rc = Graph.cost g a + pot.(v) - pot.(u) in
                let nd = d + if rc < 0 then 0 else rc in
                if nd < dist.(u) then begin
                  dist.(u) <- nd;
                  parent.(u) <- a;
                  Int_pair.push h nd u
                end
              end)
      end
    done;
    if !target < 0 then continue_ := false
    else begin
      let t = !target in
      shipped := !shipped + augment g excess parent t;
      incr augmentations;
      let d_target = dist.(t) in
      incr (if d_target = 0 then zero_paths else positive_paths);
      List.iter (fun u -> pot.(u) <- pot.(u) + dist.(u) - d_target) !settled;
      if not (has_supply excess) then continue_ := false
    end
  done;
  finish g excess ~shipped:!shipped ~augmentations:!augmentations
