let index_bits = 21
let index_mask = (1 lsl index_bits) - 1
let cost_limit = 1 lsl 40

let pack ~cost ~index =
  if cost < 0 || cost >= cost_limit then invalid_arg "Cost_sort.pack: cost out of range";
  if index < 0 || index > index_mask then invalid_arg "Cost_sort.pack: index out of range";
  (cost lsl index_bits) lor index

let cost x = x asr index_bits
let index x = x land index_mask

(* The stdlib's [Array.sort] (OCaml 5.1, stdlib/array.ml) specialised to
   [cost]: [cmp x y < 0] is [cost x < cost y] and [cmp x y > 0] is
   [cost x > cost y].  Its [Bottom i] exception, raised by [maxson] when
   [i] has no son, is the sentinel -1 here; [trickle] and [bubble] are
   its [trickledown]/[bubbledown] recursions turned into loops that stop
   where the exception would have been caught. *)
let maxson a l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if cost a.(i31) < cost a.(i31 + 1) then i31 + 1 else i31 in
    if cost a.(x) < cost a.(i31 + 2) then i31 + 2 else x
  end
  else if i31 + 1 < l && cost a.(i31) < cost a.(i31 + 1) then i31 + 1
  else if i31 < l then i31
  else -1

let trickle a l i e =
  let i = ref i and j = ref (maxson a l i) in
  while !j >= 0 && cost a.(!j) > cost e do
    a.(!i) <- a.(!j);
    i := !j;
    j := maxson a l !j
  done;
  a.(!i) <- e

let bubble a l i =
  let i = ref i and j = ref (maxson a l i) in
  while !j >= 0 do
    a.(!i) <- a.(!j);
    i := !j;
    j := maxson a l !j
  done;
  !i

let trickleup a i e =
  let i = ref i and father = ref ((i - 1) / 3) in
  while !i > 0 && cost a.(!father) < cost e do
    a.(!i) <- a.(!father);
    i := !father;
    father := (!i - 1) / 3
  done;
  a.(!i) <- e

let sort a n =
  if n < 0 || n > Array.length a then invalid_arg "Cost_sort.sort";
  for i = ((n + 1) / 3) - 1 downto 0 do
    trickle a n i a.(i)
  done;
  for i = n - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup a (bubble a i 0) e
  done;
  if n > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end
