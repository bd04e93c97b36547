type bit = Zero | One | X
type t = bit array

let all_x n = Array.make n X
let length = Array.length

type status = Materialized | Undecided | Dropped

let check_len a b op =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Flavor.%s: length mismatch (%d vs %d)" op (Array.length a) (Array.length b))

let status ~active f =
  check_len active f "status";
  let dropped = ref false and undecided = ref false in
  Array.iteri
    (fun i b ->
      match (b, active.(i)) with
      | X, _ -> ()
      | Zero, One | One, Zero -> dropped := true
      | (Zero | One), X -> undecided := true
      | Zero, Zero | One, One -> ())
    f;
  if !dropped then Dropped else if !undecided then Undecided else Materialized

let apply ~active f =
  check_len active f "apply";
  Array.mapi
    (fun i a ->
      match (f.(i), a) with
      | X, _ -> a
      | b, X -> b
      | Zero, One | One, Zero -> invalid_arg "Flavor.apply: contradiction"
      | b, _ -> b)
    active

let compatible a b =
  check_len a b "compatible";
  let ok = ref true in
  Array.iteri
    (fun i x ->
      match (x, b.(i)) with Zero, One | One, Zero -> ok := false | _ -> ())
    a;
  !ok

let equal a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

let pp fmt t =
  Array.iter
    (fun b ->
      Format.pp_print_char fmt (match b with Zero -> '0' | One -> '1' | X -> 'x'))
    t

let to_string t = Format.asprintf "%a" pp t

module Builder = struct
  type builder = { mutable next : int }

  let create () = { next = 0 }

  let alternatives b n =
    if n <= 0 then invalid_arg "Flavor.Builder.alternatives: n must be positive";
    let base = b.next in
    b.next <- b.next + n;
    Array.init n (fun variant ->
        List.init n (fun coord ->
            (base + coord, if coord = variant then One else Zero)))

  let size b = b.next

  let finalize b fragment =
    let f = all_x b.next in
    List.iter
      (fun (i, bit) ->
        if i < 0 || i >= b.next then invalid_arg "Flavor.Builder.finalize: bad coordinate";
        f.(i) <- bit)
      fragment;
    f
end
