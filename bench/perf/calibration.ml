(* How fast the host runs code right now, from a fixed reference kernel.

   The development host is a shared VM whose speed drifts in phases of
   a second to minutes, with no CPU steal to show for it: the same
   simulation cell ran up to 1.7x slower in one pass of a run than in
   the next, while a loop of register arithmetic stayed within 3 %.  The
   drift is in the memory system (a pointer chase over 2 MB took from 38
   to 85 ms), so the reference is a kernel whose memory traffic is like
   the program's: Dijkstra over a fixed random graph of 32,768 nodes and
   8 arcs each, with an array-based heap.  Of six candidate kernels it
   followed the program's slowdowns best (bench/perf/README.md, "Host
   speed").  It allocates nothing, so no GC setting of the program moves
   it, and it calls nothing of the program, so no change to the program
   moves it.

   A run takes samples of the kernel between its units of work and scales
   their timings by [reference_s] / the median of the samples: a time
   then reads as it would on the development host at the kernel's
   typical speed.  The simulation workloads scale each unit by the
   samples taken right after it ([sample]), the server workload its whole
   closed loop by all of them ([factor]). *)

module Clock = Prelude.Clock

(* The kernel's median on the development host (2 shared vCPUs). *)
let reference_s = 0.018

let nodes = 32_768
let degree = 8

let graph =
  lazy
    (let rng = Prelude.Rng.create 20_240_611 in
     let target = Array.init (nodes * degree) (fun _ -> Prelude.Rng.int rng nodes) in
     let weight = Array.init (nodes * degree) (fun _ -> 1 + Prelude.Rng.int rng 64) in
     (target, weight))

let dist = lazy (Array.make nodes 0)

(* Heap entries: a node is pushed at most once per arc into it. *)
let key = lazy (Array.make ((nodes * degree) + 1) 0)
let value = lazy (Array.make ((nodes * degree) + 1) 0)

(* One Dijkstra from node 0; returns the sum of the distances, so the
   work cannot be optimised away. *)
let kernel () =
  let target, weight = Lazy.force graph in
  let dist = Lazy.force dist and key = Lazy.force key and value = Lazy.force value in
  Array.fill dist 0 nodes max_int;
  let n = ref 0 in
  let swap i j =
    let k = key.(i) and v = value.(i) in
    key.(i) <- key.(j);
    value.(i) <- value.(j);
    key.(j) <- k;
    value.(j) <- v
  in
  let push k v =
    let i = ref !n in
    incr n;
    key.(!i) <- k;
    value.(!i) <- v;
    while !i > 0 && key.((!i - 1) / 2) > key.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let rec sift i =
    let l = (2 * i) + 1 in
    let m = if l < !n && key.(l) < key.(i) then l else i in
    let m = if l + 1 < !n && key.(l + 1) < key.(m) then l + 1 else m in
    if m <> i then begin
      swap i m;
      sift m
    end
  in
  dist.(0) <- 0;
  push 0 0;
  while !n > 0 do
    let d = key.(0) and u = value.(0) in
    decr n;
    key.(0) <- key.(!n);
    value.(0) <- value.(!n);
    sift 0;
    if d <= dist.(u) then
      for a = u * degree to (u * degree) + degree - 1 do
        let v = target.(a) and nd = d + weight.(a) in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          push nd v
        end
      done
  done;
  Array.fold_left (fun s x -> if x < max_int then s + x else s) 0 dist

type t = { samples : Samples.t; mutable last : float }

let create () = { samples = Samples.create (); last = reference_s }

(* Kernel samples worth about 5 % of [busy_s], the time of the work just
   done, and at least one.  Returns the factor of these samples alone,
   which follows a phase of the host that the whole run's median would
   average away. *)
let sample t ~busy_s =
  let reps = max 1 (int_of_float (Float.round (0.05 *. busy_s /. t.last))) in
  let local = Samples.create () in
  for _ = 1 to reps do
    let t0 = Clock.now () in
    ignore (Sys.opaque_identity (kernel ()) : int);
    t.last <- Clock.now () -. t0;
    Samples.add local t.last;
    Samples.add t.samples t.last
  done;
  reference_s /. Samples.median local

let samples t = Samples.count t.samples

(* Multiply a time by this (divide a rate by it) to read it at the
   reference speed.  Without samples it is 1. *)
let factor t = if samples t = 0 then 1.0 else reference_s /. Samples.median t.samples
