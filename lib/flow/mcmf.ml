module Heap = Prelude.Heap
module Clock = Prelude.Clock

type result = {
  shipped : int;
  unshipped : int;
  total_cost : int;
  augmentations : int;
  elapsed_s : float;
  degraded : bool;
  profile : Obs.Solver_profile.t;
}

let infinity_dist = max_int / 4

(* Reusable solver workspace.  Arrays are grown (never shrunk) to the
   instance size, so a scheduler that solves a similarly-sized network
   every round allocates nothing on the hot path after warm-up.

   [dist]/[parent] entries are valid only where [stamp] holds the
   current [gen] — bumping [gen] invalidates both arrays in O(1),
   instead of an O(n) fill per Dijkstra.

   [live_head] lists, per node and in decreasing arc id, the residual
   twins (odd arc ids) leaving it that have had capacity at some point
   of the current solve — a superset of its {e live twins}, those whose
   residual capacity is above 0 now.  A twin that a push drains stays
   listed, and the scan rejects it as a full scan would.  List entries
   come from a pool ([live_arc] holds an entry's twin, [live_next] the
   next entry), so the lists cost memory in proportion to the twins a
   solve lifts, not to the arc count.  The Dijkstra scans a node's
   forward chain merged with its list instead of every residual arc
   (see [dijkstra]).

   [bits] and [summary] are the zero-length search's frontier, a
   two-level bitset over node ids, all zero between searches: bit
   [v land 31] of [bits.(v lsr 5)] holds node [v], and bit [w land 31]
   of [summary.(w lsr 5)] is set while [bits.(w)] is not 0.
   [blocked.(v) = epoch] marks a node that search found with no
   admissible arc (see [zero_path]); [solve] bumps [epoch] at its start
   and before each Dijkstra, whose augmentation moves the potentials. *)
type scratch = {
  mutable excess : int array;
  mutable pot : int array;
  mutable dist : int array;
  mutable parent : int array;
  mutable stamp : int array;
  mutable gen : int;
  mutable settled : int array;  (* nodes settled in this generation, in order *)
  mutable n_settled : int;
  mutable sources : int array;  (* positive-excess nodes *)
  mutable n_sources : int;
  mutable bits : int array;
  mutable summary : int array;
  mutable blocked : int array;
  mutable epoch : int;
  mutable zero_blocked : int;  (* scans skipped by this solve *)
  mutable live_head : int array;  (* per node: first entry of its list, -1 if none *)
  mutable live_arc : int array;   (* per entry: its twin's arc id *)
  mutable live_next : int array;  (* per entry: next entry, -1 at the end *)
  mutable live_used : int;        (* entries taken from the pool by this solve *)
  heap : Heap.Int_pair.t;
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
    bits = [||];
    summary = [||];
    blocked = [||];
    epoch = 0;
    zero_blocked = 0;
    live_head = [||];
    live_arc = [||];
    live_next = [||];
    live_used = 0;
    heap = Heap.Int_pair.create ();
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
    s.bits <- Array.make ((cap lsr 5) + 1) 0;
    s.summary <- Array.make ((cap lsr 10) + 1) 0;
    s.blocked <- Array.make cap 0;
    s.live_head <- Array.make cap (-1);
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
(* Early-terminating Dijkstra                                          *)
(* ------------------------------------------------------------------ *)

(* Live twins.  The pool grows by doubling and is reused across
   solves, so a warm solve takes entries without allocating. *)
let live_alloc s =
  let e = s.live_used in
  if e = Array.length s.live_arc then begin
    let cap = max 64 (2 * e) in
    let grow a =
      let b = Array.make cap (-1) in
      Array.blit a 0 b 0 e;
      b
    in
    s.live_arc <- grow s.live_arc;
    s.live_next <- grow s.live_next
  end;
  s.live_used <- e + 1;
  e

(* [live_insert s u t] lists twin [t], whose residual capacity has just
   risen above 0, under its source [u] at its place in decreasing id
   order, unless a drain earlier in the solve left it listed. *)
let live_insert s u t =
  let prev = ref (-1) and cur = ref s.live_head.(u) in
  while !cur >= 0 && s.live_arc.(!cur) > t do
    prev := !cur;
    cur := s.live_next.(!cur)
  done;
  if !cur < 0 || s.live_arc.(!cur) <> t then begin
    let e = live_alloc s in
    s.live_arc.(e) <- t;
    s.live_next.(e) <- !cur;
    if !prev >= 0 then s.live_next.(!prev) <- e else s.live_head.(u) <- e
  end

(* Seed the lists from the twins that already have capacity — none when
   the solve starts from the zero flow, as every scheduling round does.
   Walking twin ids upwards and prepending leaves each list in
   decreasing id order. *)
let seed_live s g n =
  Array.fill s.live_head 0 n (-1);
  s.live_used <- 0;
  let cap = Graph.Raw.cap g and dst = Graph.Raw.dst g in
  let m = 2 * Graph.arc_count g in
  let t = ref 1 in
  while !t < m do
    if cap.(!t) > 0 then begin
      let u = dst.(!t - 1) and e = live_alloc s in
      s.live_arc.(e) <- !t;
      s.live_next.(e) <- s.live_head.(u);
      s.live_head.(u) <- e
    end;
    t := !t + 2
  done

(* One Dijkstra pass that stops at the first settled deficit node and
   returns it (-1 when no deficit is reachable).  Because settling
   follows the canonical (dist, node) order, the returned target is
   exactly the minimum-(dist, node) reachable deficit — the same node
   a full-settle Dijkstra would pick by scanning for the nearest
   deficit — and the parent chain above it is final at that point.
   [dist]/[parent] are stamped with [s.gen]; everything else in them
   is garbage.

   It runs only after [zero_path] missed, in the same generation, and
   resumes that search instead of starting over.  The missed search
   settled every node at distance 0, in the order the full search
   settles them, and stamped their distances and parents; the pass
   replays their scans, in that order and with key 0, to seed its
   queue with the positive-key relaxations they make, then goes on
   popping and appends to [s.settled] (docs/PERFORMANCE.md, "Why the
   resume is exact").

   A settled node's scan walks its forward chain merged, by decreasing
   arc id, with its listed twins: every arc leaving it that has residual
   capacity, in the order {!Graph.iter_out} would visit them, minus
   zero-capacity twins that could never be relaxed.  The relaxations
   are therefore exactly those of a full residual scan, in the same
   order (docs/PERFORMANCE.md, "Why the scan is exact").

   The body is monomorphic, with no closure per settled node, so the
   innermost loop makes no indirect call. *)
let dijkstra g s =
  let excess = s.excess and pot = s.pot and dist = s.dist in
  let parent = s.parent and stamp = s.stamp and settled = s.settled in
  let fwd = Graph.Raw.forward_head g and next = Graph.Raw.next g in
  let live = s.live_head and live_arc = s.live_arc and live_next = s.live_next in
  let dst = Graph.Raw.dst g and cap = Graph.Raw.cap g and cost = Graph.Raw.cost g in
  let gen = s.gen in
  let h = s.heap in
  Heap.Int_pair.clear h;
  (* [r]: the next settled node to replay. *)
  let n_replay = s.n_settled and r = ref 0 in
  let target = ref (-1) in
  while !target < 0 && (!r < n_replay || not (Heap.Int_pair.is_empty h)) do
    let replay = !r < n_replay in
    let d = if replay then 0 else Heap.Int_pair.min_key h in
    let v = if replay then settled.(!r) else Heap.Int_pair.pop h in
    if replay then incr r;
    (* Stale-entry skip: a pop whose key exceeds the node's current
       distance was superseded by a later push (no decrease-key). *)
    if replay || (d = dist.(v) && stamp.(v) = gen) then begin
      if not replay then begin
        settled.(s.n_settled) <- v;
        s.n_settled <- s.n_settled + 1
      end;
      if excess.(v) < 0 then target := v
      else begin
        let pv = pot.(v) in
        (* [a]: next forward arc; [e]: next live-twin entry, whose
           twin is [b] (-1 at the end of either). *)
        let a = ref fwd.(v) and e = ref live.(v) in
        let b = ref (if !e >= 0 then live_arc.(!e) else -1) in
        while !a >= 0 || !b >= 0 do
          let arc =
            if !a > !b then begin
              let x = !a in
              a := next.(x);
              x
            end
            else begin
              let x = !b in
              e := live_next.(!e);
              b := if !e >= 0 then live_arc.(!e) else -1;
              x
            end
          in
          if cap.(arc) > 0 then begin
            let u = dst.(arc) in
            let rc = cost.(arc) + pv - pot.(u) in
            let rc = if rc < 0 then 0 else rc in
            let nd = d + rc in
            if nd < (if stamp.(u) = gen then dist.(u) else infinity_dist) then begin
              dist.(u) <- nd;
              parent.(u) <- arc;
              stamp.(u) <- gen;
              Heap.Int_pair.push h nd u
            end
          end
        done
      end
    end
  done;
  !target

(* Index of the lowest set bit of a non-zero 32-bit word, by de
   Bruijn multiplication: [x land (-x)] isolates the bit, and the
   product's top five bits are distinct for each of the 32 powers. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lowest_bit x = debruijn.((((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Adds node [u] to the frontier bitset. *)
let bit_set bits summary u =
  let w = u lsr 5 in
  let x = bits.(w) in
  if x = 0 then summary.(w lsr 5) <- summary.(w lsr 5) lor (1 lsl (w land 31));
  bits.(w) <- x lor (1 lsl (u land 31))

(* The search for a zero-length augmenting path, run first in every
   generation.  It stamps the sources with distance 0 and sets their
   bits in the frontier, then pops the least id it holds.  It relaxes
   only arcs with residual capacity and a clamped reduced cost of 0,
   onto nodes not yet stamped in this generation, whose bits it sets
   (each at most once), and stops at the first settled deficit.  Every
   key of this search is 0, so popping the least id is the canonical
   (key, node) order of the Dijkstra's heap.

   When it finds one, the full search would have returned the same
   target with the same settled list, in the same order, and the same
   parents: the full search also pops every key-0 node before any
   other, in node order; a positive-key relaxation never
   pops before the key-0 nodes run out, and never changes a key-0
   node's parent, which is the first key-0 relaxation onto it in both
   searches.  Every settled node has distance 0, so the potential
   update moves nothing.  When it finds none, it has settled every
   key-0 node, and the Dijkstra resumes from there in the same
   generation (docs/PERFORMANCE.md, "Zero-length augmenting paths").

   A node it scans that has no arc of residual capacity and clamped
   reduced cost 0 is marked blocked for the epoch; a blocked node is
   still settled, but its scan, which would relax nothing, is skipped
   (docs/PERFORMANCE.md, "Why the skip is exact"). *)
let zero_path g s =
  let excess = s.excess and pot = s.pot and dist = s.dist in
  let parent = s.parent and stamp = s.stamp and settled = s.settled in
  let fwd = Graph.Raw.forward_head g and next = Graph.Raw.next g in
  let live = s.live_head and live_arc = s.live_arc and live_next = s.live_next in
  let dst = Graph.Raw.dst g and cap = Graph.Raw.cap g and cost = Graph.Raw.cost g in
  let gen = s.gen and epoch = s.epoch and blocked = s.blocked in
  let bits = s.bits and summary = s.summary in
  s.n_settled <- 0;
  (* [low]: no summary word below it is set; [size]: bits set.  Sources
     drained since the last search leave the list (a solve makes no new
     one). *)
  let low = ref max_int and size = ref 0 and skipped = ref 0 in
  for i = 0 to s.n_sources - 1 do
    let v = s.sources.(i) in
    if excess.(v) > 0 then begin
      s.sources.(!size) <- v;
      incr size;
      dist.(v) <- 0;
      parent.(v) <- -1;
      stamp.(v) <- gen;
      bit_set bits summary v;
      if v lsr 10 < !low then low := v lsr 10
    end
  done;
  s.n_sources <- !size;
  let target = ref (-1) in
  while !target < 0 && !size > 0 do
    while summary.(!low) = 0 do
      incr low
    done;
    let sw = summary.(!low) in
    let w = (!low lsl 5) lor lowest_bit sw in
    let x = bits.(w) in
    let v = (w lsl 5) lor lowest_bit x in
    let x = x land (x - 1) in
    bits.(w) <- x;
    if x = 0 then summary.(!low) <- sw land (sw - 1);
    decr size;
    settled.(s.n_settled) <- v;
    s.n_settled <- s.n_settled + 1;
    if excess.(v) < 0 then target := v
    else if blocked.(v) = epoch then incr skipped
    else begin
      let pv = pot.(v) and admissible = ref false in
      let a = ref fwd.(v) and e = ref live.(v) in
      let b = ref (if !e >= 0 then live_arc.(!e) else -1) in
      while !a >= 0 || !b >= 0 do
        let arc =
          if !a > !b then begin
            let x = !a in
            a := next.(x);
            x
          end
          else begin
            let x = !b in
            e := live_next.(!e);
            b := if !e >= 0 then live_arc.(!e) else -1;
            x
          end
        in
        if cap.(arc) > 0 then begin
          let u = dst.(arc) in
          if cost.(arc) + pv - pot.(u) <= 0 then begin
            admissible := true;
            if stamp.(u) <> gen then begin
              dist.(u) <- 0;
              parent.(u) <- arc;
              stamp.(u) <- gen;
              bit_set bits summary u;
              if u lsr 10 < !low then low := u lsr 10;
              incr size
            end
          end
        end
      done;
      if not !admissible then blocked.(v) <- epoch
    end
  done;
  (* Leave the frontier empty for the next search. *)
  if !size > 0 then
    for j = !low to (Graph.node_count g - 1) lsr 10 do
      let sw = ref summary.(j) in
      while !sw <> 0 do
        bits.((j lsl 5) lor lowest_bit !sw) <- 0;
        sw := !sw land (!sw - 1)
      done;
      summary.(j) <- 0
    done;
  s.zero_blocked <- s.zero_blocked + !skipped;
  !target

let solve ?budget ?scratch:s g =
  let t0 = Clock.now () in
  let bstate = Budget.for_solve ?budget () in
  (* Read the obs flag exactly once, so a solve either reports all of
     its stages or none of them. *)
  let instrument = Obs.enabled () in
  (* Stage timers.  They wrap no closure around the timed code, so with
     Obs disabled a stage costs two [instrument] tests and no
     allocation. *)
  let t_spfa = ref 0.0 and t_dijkstra = ref 0.0 and t_augment = ref 0.0 in
  let stage_start () = if instrument then Clock.now () else 0.0 in
  let stage_end acc s0 = if instrument then acc := !acc +. (Clock.now () -. s0) in
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
  s.epoch <- s.epoch + 1;
  s.zero_blocked <- 0;
  let excess = s.excess and pot = s.pot and dist = s.dist and parent = s.parent in
  for v = 0 to n - 1 do
    excess.(v) <- Graph.supply g v
  done;
  (* Potentials start from zero and are bootstrapped with SPFA only if
     the graph actually has a negative-cost arc (tracked by the graph, no
     O(m) rescan here). *)
  Array.fill pot 0 n 0;
  if Graph.has_negative_cost g then begin
    let s0 = stage_start () in
    let bf = spfa g excess in
    stage_end t_spfa s0;
    for v = 0 to n - 1 do
      if bf.(v) < infinity_dist then pot.(v) <- bf.(v)
    done
  end;
  if instrument && scratch_reused then
    Obs.Registry.incr (Obs.Registry.counter "flow.scratch_reuse");
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
  (* Residual positive supply, maintained incrementally. *)
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
  (* Augmentations whose path [zero_path] found. *)
  let zero_paths = ref 0 in
  seed_live s g n;
  (* The cost of the flow, accumulated per augmentation: each pushed arc
     adds [amount] times its cost, a twin's being the negated cost of
     its forward arc, which sums to [Graph.flow_cost] when the solve
     starts from the zero flow.  One that starts from another flow
     (a listed twin) prices the result with that pass instead. *)
  let zero_start = s.live_used = 0 and flow_cost = ref 0 in
  let cap = Graph.Raw.cap g and dst = Graph.Raw.dst g and cost = Graph.Raw.cost g in
  while !continue_ do
    (* Budget checked at augmentation boundaries: an SSP prefix is a
       valid min-cost flow for its value, so stopping here leaves a
       salvageable partial solution on the graph. *)
    if not (within_budget ()) then continue_ := false
    else begin
      s.gen <- s.gen + 1;
      let s0 = stage_start () in
      let target =
        let t = zero_path g s in
        if t >= 0 then begin
          incr zero_paths;
          t
        end
        else begin
          s.epoch <- s.epoch + 1;
          dijkstra g s
        end
      in
      stage_end t_dijkstra s0;
      if target < 0 then continue_ := false
      else begin
        let s0 = stage_start () in
        let d_target = dist.(target) in
        (* Bottleneck along the path back to whichever source
           started it; every node on it is settled, so the parent
           chain is final. *)
        let bottleneck = ref (-excess.(target)) in
        let v = ref target in
        while parent.(!v) >= 0 do
          let a = parent.(!v) in
          if cap.(a) < !bottleneck then bottleneck := cap.(a);
          v := dst.(a lxor 1)
        done;
        let source = !v in
        if excess.(source) < !bottleneck then bottleneck := excess.(source);
        let amount = !bottleneck in
        (* [amount] > 0, so a forward push lifts its twin from 0
           exactly when the twin now holds [amount]. *)
        let v = ref target in
        while parent.(!v) >= 0 do
          let a = parent.(!v) in
          Graph.push g a amount;
          flow_cost := !flow_cost + (amount * cost.(a));
          if a land 1 = 0 && cap.(a + 1) = amount then live_insert s dst.(a) (a + 1);
          v := dst.(a lxor 1)
        done;
        excess.(source) <- excess.(source) - amount;
        excess.(target) <- excess.(target) + amount;
        shipped := !shipped + amount;
        remaining := !remaining - amount;
        incr augmentations;
        (match bstate with Some st -> Budget.spend st 1 | None -> ());
        (* Settled-only Johnson update: π(u) += dist(u) − D keeps
           every residual reduced cost non-negative (settled→settled
           arcs are unchanged relative shifts; settled→unsettled
           arcs gain dist(u) − D ≥ dist(w) − D ≥ 0 slack from the
           relaxation at u's settle time; unsettled→settled arcs
           gain D − dist(w) ≥ 0), while leaving unreached potentials
           untouched. *)
        for i = 0 to s.n_settled - 1 do
          let u = s.settled.(i) in
          pot.(u) <- pot.(u) + dist.(u) - d_target
        done;
        stage_end t_augment s0;
        if !remaining = 0 then continue_ := false
      end
    end
  done;
  if instrument then Obs.Registry.incr ~by:!zero_paths (Obs.Registry.counter "flow.zero_paths");
  if instrument then Obs.Registry.incr ~by:s.zero_blocked (Obs.Registry.counter "flow.zero_blocked");
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
    total_cost = (if zero_start then !flow_cost else Graph.flow_cost g);
    augmentations = !augmentations;
    elapsed_s;
    degraded;
    profile;
  }

type path = { nodes : int list; amount : int }

(* Paths are peeled off the flow by walking forward arcs only.  Each
   node keeps a cursor into its forward chain: the first arc, in chain
   order, that may still carry flow no earlier path has consumed, and
   [used] is how much of that arc's flow earlier paths consumed.  A walk
   always leaves a node by its cursor arc, so the path under
   construction is the chain of cursor arcs from its source, and
   consumption only ever lands on cursor arcs; an arc whose flow is
   used up never regains any, so cursors only move down their chains.
   Every array is per node — nothing is sized by the arc count.

   A walk that reaches a node already on its path has closed a flow
   cycle (a solve may leave flow on both arcs of a zero-cost
   antiparallel pair).  The cycle's bottleneck is consumed from every
   arc of the cycle, which keeps the remaining flow a conserving one,
   and the walk resumes from that node.  Each cancellation consumes at
   least one unit, so every walk ends.  A finished path is the chain
   of cursor arcs from its source to its sink, which [walk] follows. *)
let iter_paths g f =
  let n = Graph.node_count g in
  let fwd = Graph.Raw.forward_head g and next = Graph.Raw.next g in
  let dst = Graph.Raw.dst g in
  let cursor = Array.sub fwd 0 n and used = Array.make n 0 in
  (* Remaining supply (> 0) or demand (< 0) per node. *)
  let balance = Array.init n (Graph.supply g) in
  let on_path = Bytes.make n '\000' in
  let remaining v = Graph.flow g cursor.(v) - used.(v) in
  let out_with_flow v =
    while cursor.(v) >= 0 && remaining v <= 0 do
      cursor.(v) <- next.(cursor.(v));
      used.(v) <- 0
    done;
    cursor.(v)
  in
  (* Follow cursor arcs from [first] until [last], consuming [amount]
     from each and clearing the on-path mark of every node left. *)
  let consume first last amount =
    let v = ref first in
    while !v <> last do
      let u = dst.(cursor.(!v)) in
      used.(!v) <- used.(!v) + amount;
      Bytes.set on_path !v '\000';
      v := u
    done
  in
  let path_source = ref 0 and path_sink = ref 0 in
  let walk h =
    let x = ref !path_source in
    while !x <> !path_sink do
      h !x;
      x := dst.(cursor.(!x))
    done;
    h !path_sink
  in
  for source = 0 to n - 1 do
    while balance.(source) > 0 && out_with_flow source >= 0 do
      (* Walk flow-carrying arcs until a node with remaining demand, or
         one without remaining outflow (conservation makes that a demand
         node too). *)
      Bytes.set on_path source '\001';
      let v = ref source and walking = ref true in
      while !walking do
        if balance.(!v) < 0 then walking := false
        else begin
          let a = out_with_flow !v in
          if a < 0 then walking := false
          else begin
            let u = dst.(a) in
            if Bytes.get on_path u = '\001' then begin
              (* Flow cycle u -> ... -> v -> u: cancel its bottleneck. *)
              let w = dst.(cursor.(u)) in
              let c = ref (remaining u) and x = ref w in
              while !x <> u do
                c := Int.min !c (remaining !x);
                x := dst.(cursor.(!x))
              done;
              used.(u) <- used.(u) + !c;
              consume w u !c
            end
            else Bytes.set on_path u '\001';
            v := u
          end
        end
      done;
      let sink = !v in
      let bottleneck = ref balance.(source) and x = ref source in
      while !x <> sink do
        bottleneck := Int.min !bottleneck (remaining !x);
        x := dst.(cursor.(!x))
      done;
      if balance.(sink) < 0 then bottleneck := Int.min !bottleneck (-balance.(sink));
      let amount = !bottleneck in
      (* [sink = source] when all of the source's outflow cycled back. *)
      if sink = source then balance.(source) <- 0
      else begin
        (* [consume] moves no cursor, so [walk] still follows the path. *)
        consume source sink amount;
        balance.(source) <- balance.(source) - amount;
        if balance.(sink) < 0 then balance.(sink) <- Int.min 0 (balance.(sink) + amount);
        path_source := source;
        path_sink := sink;
        f walk amount
      end;
      Bytes.set on_path sink '\000'
    done
  done

let decompose g =
  let paths = ref [] in
  iter_paths g (fun walk amount ->
      let nodes = ref [] in
      walk (fun v -> nodes := v :: !nodes);
      paths := { nodes = List.rev !nodes; amount } :: !paths);
  List.rev !paths
