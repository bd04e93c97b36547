(* SplitMix64 (Steele, Lea, Flood 2014).  State is a single 64-bit word
   advanced by the golden-gamma; output is a finalizing hash of the state.
   All arithmetic is modular on OCaml's 63-bit ints cast through Int64 to
   keep exact 64-bit semantics. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let create seed = { state = mix (Int64.of_int seed) }

let split t =
  let s = next_int64 t in
  { state = mix s }

let copy t = { state = t.state }

(* Non-negative 62-bit value, uniform. *)
let next_nonneg t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask_range = (max_int / bound) * bound in
  let rec draw () =
    let v = next_nonneg t in
    if v < mask_range then v mod bound else draw ()
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits -> uniform in [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let normal t ~mu ~sigma =
  (* Box–Muller; we only use one of the pair for simplicity. *)
  let u1 = 1.0 -. float t 1.0 and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let log_normal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

(* Partial Fisher–Yates on the prefix [arr.(0 .. len - 1)]: the first
   [min n len] slots end up as the sample. *)
let sample_in_place t ~n arr ~len =
  let n = min n len in
  for i = 0 to n - 1 do
    let j = int_in t i (len - 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  max 0 n

let sample_without_replacement t ~n arr =
  let copy = Array.copy arr in
  let n = sample_in_place t ~n copy ~len:(Array.length copy) in
  Array.to_list (Array.sub copy 0 n)

let weighted_choice t items =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 items in
  if total <= 0.0 then invalid_arg "Rng.weighted_choice: total weight must be positive";
  let target = float t total in
  let rec pick acc = function
    | [] -> invalid_arg "Rng.weighted_choice: empty list"
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if acc +. w > target then x else pick (acc +. w) rest
  in
  pick 0.0 items
