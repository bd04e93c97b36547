module Heap = Prelude.Heap
module Bucket_queue = Prelude.Bucket_queue
module Clock = Prelude.Clock
module Int_tbl = Prelude.Int_tbl

type result = {
  shipped : int;
  unshipped : int;
  total_cost : int;
  augmentations : int;
  elapsed_s : float;
  degraded : bool;
  profile : Obs.Solver_profile.t;
}

(* [Fast] is the production path: early-terminating Dijkstra with
   generation-stamped arrays, settled-only potential updates and an
   automatically selected bucket queue.  [Classic] is the historical
   full-settle implementation, kept verbatim as the reference the solver
   tests compare [Fast] against; both are exact and produce min-cost
   flows, but they may break ties between equally-cheap paths
   differently, so a run must use one algorithm throughout. *)
type algo = Classic | Fast

let infinity_dist = max_int / 4

(* Keys in the bucket queue are reduced-cost path lengths, so its memory
   is proportional to the longest shortest-path; only use it when arc
   costs are small enough that this stays cheap.  Purely a performance
   heuristic: both queues pop in the same canonical (key, node) order,
   so the selection can never change results. *)
let bucket_cost_limit = 1 lsl 16

(* Reusable solver workspace.  Arrays are grown (never shrunk) to the
   instance size, so a scheduler that solves a similarly-sized network
   every round allocates nothing on the hot path after warm-up.

   [dist]/[parent] entries are valid only where [stamp] holds the
   current [gen] — bumping [gen] invalidates both arrays in O(1),
   replacing the per-Dijkstra O(n) fills of the classic path. *)
type scratch = {
  mutable excess : int array;
  mutable pot : int array;
  mutable dist : int array;
  mutable parent : int array;
  mutable stamp : int array;
  mutable gen : int;
  mutable settled : int array;  (* nodes settled by the current Dijkstra *)
  mutable n_settled : int;
  mutable sources : int array;  (* compact positive-excess node list *)
  mutable n_sources : int;
  heap : Heap.Int_pair.t;
  bucket : Bucket_queue.t;
}

let scratch () =
  {
    excess = [||];
    pot = [||];
    dist = [||];
    parent = [||];
    stamp = [||];
    gen = 0;
    settled = [||];
    n_settled = 0;
    sources = [||];
    n_sources = 0;
    heap = Heap.Int_pair.create ();
    bucket = Bucket_queue.create ();
  }

let ensure_scratch s n =
  if Array.length s.excess < n then begin
    let cap = max n (2 * Array.length s.excess) in
    s.excess <- Array.make cap 0;
    s.pot <- Array.make cap 0;
    s.dist <- Array.make cap 0;
    s.parent <- Array.make cap 0;
    s.stamp <- Array.make cap 0;
    s.settled <- Array.make cap 0;
    s.sources <- Array.make cap 0;
    (* Fresh stamps read as stale for any positive generation. *)
    s.gen <- max 1 s.gen
  end

(* SPFA (queue-based Bellman–Ford) from every positive-excess node; used
   only to bootstrap potentials when negative arc costs are present. *)
let spfa g excess =
  let n = Graph.node_count g in
  let dist = Array.make n infinity_dist in
  let in_queue = Array.make n false in
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
        end);
  done;
  dist

(* ------------------------------------------------------------------ *)
(* Classic full-settle Dijkstra (baseline algorithm)                   *)
(* ------------------------------------------------------------------ *)

(* Multi-source Dijkstra on reduced costs.  Fills [dist]/[parent];
   parent.(v) is the residual arc used to reach v, or -1.  Settles the
   whole reachable graph before the caller scans for the nearest
   deficit. *)
let dijkstra_classic g excess pot dist parent heap =
  let n = Graph.node_count g in
  Array.fill dist 0 n infinity_dist;
  Array.fill parent 0 n (-1);
  Heap.Int_pair.clear heap;
  for v = 0 to n - 1 do
    if excess.(v) > 0 then begin
      dist.(v) <- 0;
      Heap.Int_pair.push heap 0 v
    end
  done;
  while not (Heap.Int_pair.is_empty heap) do
    let d = Heap.Int_pair.min_key heap in
    let v = Heap.Int_pair.pop heap in
    (* Stale entries — superseded by a later relaxation of [v] — carry
       a key strictly above dist.(v) and are skipped without expansion.
       No decrease-key exists (or is needed): Heap.Int_pair simply
       accumulates one entry per improvement. *)
    if d = dist.(v) then
      Graph.iter_out g v (fun a ->
          if Graph.residual_cap g a > 0 then begin
            let u = Graph.dst g a in
            let rc = Graph.cost g a + pot.(v) - pot.(u) in
            (* Reduced costs are non-negative once potentials are valid;
               clamp tiny negatives caused by unreachable-node potential
               staleness. *)
            let rc = if rc < 0 then 0 else rc in
            let nd = d + rc in
            if nd < dist.(u) then begin
              dist.(u) <- nd;
              parent.(u) <- a;
              Heap.Int_pair.push heap nd u
            end
          end)
  done

(* ------------------------------------------------------------------ *)
(* Fast early-terminating Dijkstra                                     *)
(* ------------------------------------------------------------------ *)

(* Drop positive-excess nodes that have been drained since the last
   Dijkstra; the surviving order is irrelevant because both queues pop
   sources in canonical (0, node) order regardless of push order. *)
let compact_sources s =
  let i = ref 0 in
  while !i < s.n_sources do
    let v = s.sources.(!i) in
    if s.excess.(v) > 0 then incr i
    else begin
      s.n_sources <- s.n_sources - 1;
      s.sources.(!i) <- s.sources.(s.n_sources)
    end
  done

(* One Dijkstra pass that stops at the first settled deficit node and
   returns it (-1 when no deficit is reachable).  Because settling
   follows the canonical (dist, node) order, the returned target is
   exactly the minimum-(dist, node) reachable deficit — the same node
   the classic path picks with its post-settle O(n) scan — and the
   parent chain above it is final at that point.  [dist]/[parent] are
   stamped with [s.gen]; everything else in them is garbage.

   The two bodies below are identical except for the queue type; they
   are kept monomorphic (no first-class module) to avoid indirect calls
   in the innermost loop. *)
let dijkstra_fast_heap g s =
  let excess = s.excess and pot = s.pot and dist = s.dist in
  let parent = s.parent and stamp = s.stamp in
  let gen = s.gen in
  let h = s.heap in
  Heap.Int_pair.clear h;
  s.n_settled <- 0;
  compact_sources s;
  for i = 0 to s.n_sources - 1 do
    let v = s.sources.(i) in
    dist.(v) <- 0;
    parent.(v) <- -1;
    stamp.(v) <- gen;
    Heap.Int_pair.push h 0 v
  done;
  let target = ref (-1) in
  while !target < 0 && not (Heap.Int_pair.is_empty h) do
    let d = Heap.Int_pair.min_key h in
    let v = Heap.Int_pair.pop h in
    (* Stale-entry skip: a pop whose key exceeds the node's current
       distance was superseded by a later push (no decrease-key). *)
    if d = dist.(v) && stamp.(v) = gen then begin
      s.settled.(s.n_settled) <- v;
      s.n_settled <- s.n_settled + 1;
      if excess.(v) < 0 then target := v
      else
        Graph.iter_out g v (fun a ->
            if Graph.residual_cap g a > 0 then begin
              let u = Graph.dst g a in
              let rc = Graph.cost g a + pot.(v) - pot.(u) in
              let rc = if rc < 0 then 0 else rc in
              let nd = d + rc in
              if nd < (if stamp.(u) = gen then dist.(u) else infinity_dist) then begin
                dist.(u) <- nd;
                parent.(u) <- a;
                stamp.(u) <- gen;
                Heap.Int_pair.push h nd u
              end
            end)
    end
  done;
  !target

let dijkstra_fast_bucket g s =
  let excess = s.excess and pot = s.pot and dist = s.dist in
  let parent = s.parent and stamp = s.stamp in
  let gen = s.gen in
  let q = s.bucket in
  Bucket_queue.clear q;
  s.n_settled <- 0;
  compact_sources s;
  for i = 0 to s.n_sources - 1 do
    let v = s.sources.(i) in
    dist.(v) <- 0;
    parent.(v) <- -1;
    stamp.(v) <- gen;
    Bucket_queue.push q 0 v
  done;
  let target = ref (-1) in
  while !target < 0 && not (Bucket_queue.is_empty q) do
    let d = Bucket_queue.min_key q in
    let v = Bucket_queue.pop q in
    if d = dist.(v) && stamp.(v) = gen then begin
      s.settled.(s.n_settled) <- v;
      s.n_settled <- s.n_settled + 1;
      if excess.(v) < 0 then target := v
      else
        Graph.iter_out g v (fun a ->
            if Graph.residual_cap g a > 0 then begin
              let u = Graph.dst g a in
              let rc = Graph.cost g a + pot.(v) - pot.(u) in
              let rc = if rc < 0 then 0 else rc in
              let nd = d + rc in
              if nd < (if stamp.(u) = gen then dist.(u) else infinity_dist) then begin
                dist.(u) <- nd;
                parent.(u) <- a;
                stamp.(u) <- gen;
                Bucket_queue.push q nd u
              end
            end)
    end
  done;
  !target

let solve ?budget ?ctl ?scratch:s ?(algo = Fast) g =
  let t0 = Clock.now () in
  let bstate = Budget.for_solve ?budget ?ctl () in
  (* Read the obs flag exactly once: a solve running on a racing domain
     is spawned with obs quiesced and must never emit, even if the
     coordinator re-enables obs while the domain still runs. *)
  let instrument = Obs.enabled () in
  let t_spfa = ref 0.0 and t_dijkstra = ref 0.0 and t_augment = ref 0.0 in
  let staged acc f =
    if instrument then begin
      let s0 = Clock.now () in
      let r = f () in
      acc := !acc +. (Clock.now () -. s0);
      r
    end
    else f ()
  in
  let n = Graph.node_count g in
  let s, scratch_reused =
    match s with
    | Some s ->
        let reused = Array.length s.excess >= n in
        ensure_scratch s n;
        (s, reused)
    | None ->
        let s = scratch () in
        ensure_scratch s n;
        (s, false)
  in
  let excess = s.excess and pot = s.pot and dist = s.dist and parent = s.parent in
  for v = 0 to n - 1 do
    excess.(v) <- Graph.supply g v
  done;
  (* Potentials start from zero and are bootstrapped with SPFA only if
     the graph actually has a negative-cost arc (tracked by the graph, no
     O(m) rescan here). *)
  Array.fill pot 0 n 0;
  if Graph.has_negative_cost g then begin
    let bf = staged t_spfa (fun () -> spfa g excess) in
    for v = 0 to n - 1 do
      if bf.(v) < infinity_dist then pot.(v) <- bf.(v)
    done
  end;
  (* Queue selection for the fast path: bucket Dijkstra when all costs
     are non-negative and bounded (both always true for the HIRE cost
     model, whose scaled terms top out at the 6×cost_scale sentinel),
     binary heap otherwise.  Identical pop order either way. *)
  let use_bucket =
    algo = Fast && (not (Graph.has_negative_cost g)) && Graph.cost_ub g <= bucket_cost_limit
  in
  if instrument then begin
    if scratch_reused then Obs.Registry.incr (Obs.Registry.counter "flow.scratch_reuse");
    if algo = Fast then
      Obs.Registry.incr
        (Obs.Registry.counter (if use_bucket then "flow.queue.bucket" else "flow.queue.heap"))
  end;
  let shipped = ref 0 in
  let augmentations = ref 0 in
  let exhausted = ref None in
  let within_budget () =
    match bstate with
    | None -> true
    | Some st -> (
        match Budget.check st with
        | None -> true
        | Some reason ->
            exhausted := Some reason;
            false)
  in
  (* Residual positive supply, maintained incrementally (the classic
     path rescans instead). *)
  let remaining = ref 0 in
  s.n_sources <- 0;
  for v = 0 to n - 1 do
    if excess.(v) > 0 then begin
      remaining := !remaining + excess.(v);
      s.sources.(s.n_sources) <- v;
      s.n_sources <- s.n_sources + 1
    end
  done;
  let continue_ = ref (!remaining > 0) in
  (match algo with
  | Fast ->
      while !continue_ do
        (* Budget checked at augmentation boundaries: an SSP prefix is a
           valid min-cost flow for its value, so stopping here leaves a
           salvageable partial solution on the graph. *)
        if not (within_budget ()) then continue_ := false
        else begin
          s.gen <- s.gen + 1;
          let target =
            staged t_dijkstra (fun () ->
                if use_bucket then dijkstra_fast_bucket g s else dijkstra_fast_heap g s)
          in
          if target < 0 then continue_ := false
          else
            staged t_augment (fun () ->
                let d_target = dist.(target) in
                (* Bottleneck along the path back to whichever source
                   started it; every node on it is settled, so the
                   parent chain is final. *)
                let bottleneck = ref (-excess.(target)) in
                let v = ref target in
                while parent.(!v) >= 0 do
                  let a = parent.(!v) in
                  if Graph.residual_cap g a < !bottleneck then
                    bottleneck := Graph.residual_cap g a;
                  v := Graph.src g a
                done;
                let source = !v in
                if excess.(source) < !bottleneck then bottleneck := excess.(source);
                let amount = !bottleneck in
                let v = ref target in
                while parent.(!v) >= 0 do
                  let a = parent.(!v) in
                  Graph.push g a amount;
                  v := Graph.src g a
                done;
                excess.(source) <- excess.(source) - amount;
                excess.(target) <- excess.(target) + amount;
                shipped := !shipped + amount;
                remaining := !remaining - amount;
                incr augmentations;
                (match bstate with Some st -> Budget.spend st 1 | None -> ());
                (* Settled-only Johnson update: π(u) += dist(u) − D
                   keeps every residual reduced cost non-negative
                   (settled→settled arcs are unchanged relative shifts;
                   settled→unsettled arcs gain dist(u) − D ≥ dist(w) − D
                   ≥ 0 slack from the relaxation at u's settle time;
                   unsettled→settled arcs gain D − dist(w) ≥ 0), while
                   leaving unreached potentials untouched. *)
                for i = 0 to s.n_settled - 1 do
                  let u = s.settled.(i) in
                  pot.(u) <- pot.(u) + dist.(u) - d_target
                done;
                if !remaining = 0 then continue_ := false)
        end
      done
  | Classic ->
      let remaining_supply () =
        let acc = ref 0 in
        for v = 0 to n - 1 do
          if excess.(v) > 0 then acc := !acc + excess.(v)
        done;
        !acc
      in
      while !continue_ do
        if not (within_budget ()) then continue_ := false
        else begin
          staged t_dijkstra (fun () -> dijkstra_classic g excess pot dist parent s.heap);
          (* Nearest reachable deficit node. *)
          let best = ref (-1) in
          for v = 0 to n - 1 do
            if excess.(v) < 0 && dist.(v) < infinity_dist then
              if !best < 0 || dist.(v) < dist.(!best) then best := v
          done;
          match !best with
          | -1 -> continue_ := false
          | target ->
              staged t_augment (fun () ->
                  let bottleneck = ref (-excess.(target)) in
                  let v = ref target in
                  while parent.(!v) >= 0 do
                    let a = parent.(!v) in
                    if Graph.residual_cap g a < !bottleneck then
                      bottleneck := Graph.residual_cap g a;
                    v := Graph.src g a
                  done;
                  let source = !v in
                  if excess.(source) < !bottleneck then bottleneck := excess.(source);
                  let amount = !bottleneck in
                  let v = ref target in
                  while parent.(!v) >= 0 do
                    let a = parent.(!v) in
                    Graph.push g a amount;
                    v := Graph.src g a
                  done;
                  excess.(source) <- excess.(source) - amount;
                  excess.(target) <- excess.(target) + amount;
                  shipped := !shipped + amount;
                  remaining := !remaining - amount;
                  incr augmentations;
                  (match bstate with Some st -> Budget.spend st 1 | None -> ());
                  (* Johnson potential update keeps reduced costs
                     non-negative. *)
                  for u = 0 to n - 1 do
                    if dist.(u) < infinity_dist then pot.(u) <- pot.(u) + dist.(u)
                  done;
                  if remaining_supply () = 0 then continue_ := false)
        end
      done);
  let degraded = !exhausted <> None in
  if degraded && instrument then begin
    Obs.Registry.incr (Obs.Registry.counter "flow.budget_exhausted");
    Obs.Trace.emit "solver_degraded"
      [
        ("solver", Obs.Trace.Str "ssp");
        ( "reason",
          Obs.Trace.Str (Format.asprintf "%a" Budget.pp_reason (Option.get !exhausted)) );
        ("shipped", Obs.Trace.Int !shipped);
      ]
  end;
  let elapsed_s = Clock.now () -. t0 in
  let profile =
    {
      (Obs.Solver_profile.zero ~solver:"ssp") with
      nodes = n;
      arcs = Graph.arc_count g;
      augmentations = !augmentations;
      scratch_reused;
      stages =
        (if instrument then
           [ ("spfa", !t_spfa); ("dijkstra", !t_dijkstra); ("augment", !t_augment) ]
         else []);
      wall_s = elapsed_s;
    }
  in
  if instrument then Obs.Solver_profile.emit profile;
  {
    shipped = !shipped;
    unshipped = !remaining;
    total_cost = Graph.flow_cost g;
    augmentations = !augmentations;
    elapsed_s;
    degraded;
    profile;
  }

type path = { nodes : int list; amount : int }

let decompose g =
  let n = Graph.node_count g in
  (* Remaining flow per forward arc, consumed as paths are peeled off. *)
  let rem = Int_tbl.create 256 in
  Graph.iter_arcs g (fun a ->
      let f = Graph.flow g a in
      if f > 0 then Int_tbl.replace rem a f);
  let rem_supply = Array.init n (fun v -> max 0 (Graph.supply g v)) in
  let rem_demand = Array.init n (fun v -> max 0 (-Graph.supply g v)) in
  let out_with_flow v =
    Graph.fold_out g v None (fun acc a ->
        match acc with
        | Some _ -> acc
        | None ->
            if Graph.is_forward a && Int_tbl.mem rem a && Int_tbl.find rem a > 0 then Some a
            else None)
  in
  let paths = ref [] in
  for source = 0 to n - 1 do
    while rem_supply.(source) > 0 && out_with_flow source <> None do
      (* Walk positive-flow arcs until we hit a node with remaining
         demand and no further mandatory outflow, collecting the
         bottleneck. *)
      let rec walk v acc_nodes acc_arcs bottleneck =
        if rem_demand.(v) > 0 then (List.rev (v :: acc_nodes), List.rev acc_arcs, min bottleneck rem_demand.(v))
        else
          match out_with_flow v with
          | None ->
              (* Conservation guarantees this only happens at a demand
                 node; treat as sink with whatever bottleneck we have. *)
              (List.rev (v :: acc_nodes), List.rev acc_arcs, bottleneck)
          | Some a ->
              let f = Int_tbl.find rem a in
              walk (Graph.dst g a) (v :: acc_nodes) (a :: acc_arcs) (min bottleneck f)
      in
      let nodes, arcs, bottleneck = walk source [] [] rem_supply.(source) in
      if bottleneck <= 0 || arcs = [] then rem_supply.(source) <- 0 (* degenerate; stop *)
      else begin
        List.iter
          (fun a ->
            let f = Int_tbl.find rem a - bottleneck in
            if f <= 0 then Int_tbl.remove rem a else Int_tbl.replace rem a f)
          arcs;
        let sink = List.nth nodes (List.length nodes - 1) in
        rem_supply.(source) <- rem_supply.(source) - bottleneck;
        rem_demand.(sink) <- max 0 (rem_demand.(sink) - bottleneck);
        paths := { nodes; amount = bottleneck } :: !paths
      end
    done
  done;
  List.rev !paths
