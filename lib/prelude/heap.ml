type 'a t = { cmp : 'a -> 'a -> int; mutable data : 'a array; mutable size : int }

let create ~cmp = { cmp; data = [||]; size = 0 }
let is_empty t = t.size = 0
let size t = t.size

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = max 8 (2 * cap) in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then raise Not_found;
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  top

let peek t = if t.size = 0 then raise Not_found else t.data.(0)
let clear t = t.size <- 0
let to_list t = Array.to_list (Array.sub t.data 0 t.size)

(* Monomorphic (int key, int value) min-heap on parallel arrays: no
   tuple boxing, no polymorphic-compare dispatch.  Ordering is the
   canonical lexicographic (key, value) order — equal keys break ties
   toward the smaller value — so pop order is a total order independent
   of insertion order, and the MCMF Dijkstra's tie-breaking with it.

   No decrease-key is needed (or provided): Dijkstra pushes a fresh
   entry on every distance improvement and lazily skips stale entries
   at pop time (popped key > current dist).  Since improvements are
   strictly decreasing per node, duplicate (key, value) entries cannot
   occur, and the lexicographic order stays total in practice. *)
module Int_pair = struct
  type t = { mutable key : int array; mutable value : int array; mutable size : int }

  let create () = { key = [||]; value = [||]; size = 0 }
  let is_empty t = t.size = 0
  let size t = t.size
  let clear t = t.size <- 0

  let grow t =
    let cap = Array.length t.key in
    if t.size = cap then begin
      let ncap = max 8 (2 * cap) in
      let nkey = Array.make ncap 0 and nvalue = Array.make ncap 0 in
      Array.blit t.key 0 nkey 0 t.size;
      Array.blit t.value 0 nvalue 0 t.size;
      t.key <- nkey;
      t.value <- nvalue
    end

  let swap t i j =
    let k = t.key.(i) and v = t.value.(i) in
    t.key.(i) <- t.key.(j);
    t.value.(i) <- t.value.(j);
    t.key.(j) <- k;
    t.value.(j) <- v

  (* Lexicographic (key, value) comparison. *)
  let less t i j =
    t.key.(i) < t.key.(j) || (t.key.(i) = t.key.(j) && t.value.(i) < t.value.(j))

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && less t l !smallest then smallest := l;
    if r < t.size && less t r !smallest then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let push t k v =
    grow t;
    t.key.(t.size) <- k;
    t.value.(t.size) <- v;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let min_key t =
    if t.size = 0 then raise Not_found;
    t.key.(0)

  let pop t =
    if t.size = 0 then raise Not_found;
    let top = t.value.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.key.(0) <- t.key.(t.size);
      t.value.(0) <- t.value.(t.size);
      sift_down t 0
    end;
    top
end
