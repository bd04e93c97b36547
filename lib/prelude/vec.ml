type t = float array

let eps = 1e-9

let create n x = Array.make n x
let of_list = Array.of_list
let dim = Array.length
let copy = Array.copy
let zero n = Array.make n 0.0

let check_dims a b op =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" op (Array.length a) (Array.length b))

let add a b =
  check_dims a b "add";
  Array.mapi (fun i x -> x +. b.(i)) a

let sub a b =
  check_dims a b "sub";
  Array.mapi (fun i x -> x -. b.(i)) a

let scale k a = Array.map (fun x -> k *. x) a

let mul a b =
  check_dims a b "mul";
  Array.mapi (fun i x -> x *. b.(i)) a

let div a b =
  check_dims a b "div";
  Array.mapi (fun i x -> if Float.abs b.(i) < eps then 0.0 else x /. b.(i)) a

let add_into acc v =
  check_dims acc v "add_into";
  Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) v

let sub_into acc v =
  check_dims acc v "sub_into";
  Array.iteri (fun i x -> acc.(i) <- acc.(i) -. x) v

(* A loop rather than [Array.iteri]: the candidate scans of the flow
   network call this once per switch per task group. *)
let le a b =
  check_dims a b "le";
  let n = Array.length a in
  let i = ref 0 in
  while !i < n && not (a.(!i) > b.(!i) +. eps) do
    incr i
  done;
  !i = n

let fits ~demand ~available = le demand available

let avg v = Stats.mean_arr v
let stddev v = Stats.stddev_arr v

let dot a b =
  check_dims a b "dot";
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

let is_zero v = Array.for_all (fun x -> Float.abs x < eps) v
let clamp_nonneg v = Array.map (fun x -> Float.max 0.0 x) v

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) < eps) a b

let pp fmt v =
  Format.fprintf fmt "[%s]"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.3f") v)))

let to_string v = Format.asprintf "%a" pp v
