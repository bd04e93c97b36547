(* Growable sample buffers and the order statistics the benchmark
   reports.

   A tail percentile is reported only when at least [min_beyond]
   samples lie beyond it: the q-quantile of n samples needs
   n * (1 - q) >= 10.  Below that it is the mean of a handful of
   extreme values, not a percentile. *)

type t = { mutable a : float array; mutable n : int }

let min_beyond = 10
let create () = { a = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let a = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 a 0 t.n;
    t.a <- a
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    s := !s +. t.a.(i)
  done;
  !s

(* Linear interpolation between order statistics of a sorted array. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

let enough_beyond n q = float_of_int n *. (1.0 -. q) >= float_of_int min_beyond

(* [percentile t q] is [Some] value only when the tail rule holds. *)
let percentile t q =
  if enough_beyond t.n q then Some (quantile_sorted (sorted t) q) else None

let median t = quantile_sorted (sorted t) 0.5

let median_list xs =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  quantile_sorted s 0.5

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so the spreads printed here match
   the ones a reader recomputes from the same values. *)
let quartiles xs =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n < 2 then (s.(0), s.(0), s.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
