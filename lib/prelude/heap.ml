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

let clear t = t.size <- 0
let to_list t = Array.to_list (Array.sub t.data 0 t.size)

(* Monomorphic (int key, int value) min-heap of packed entries,
   [key lsl 21 lor value]: integer order on entries is the
   lexicographic (key, value) order, so pop order is a total order
   independent of insertion order, and the MCMF Dijkstra's
   tie-breaking with it.  The sifts move a hole instead of swapping.
   No decrease-key: Dijkstra pushes a fresh entry on every distance
   improvement and skips stale ones at pop time. *)
module Int_pair = struct
  let value_bits = 21
  let value_mask = (1 lsl value_bits) - 1

  type t = { mutable data : int array; mutable size : int }

  let create () = { data = [||]; size = 0 }
  let is_empty t = t.size = 0
  let clear t = t.size <- 0

  let push t k v =
    if k lsr 41 lor (v lsr value_bits) <> 0 then invalid_arg "Heap.Int_pair.push: out of range";
    if t.size = Array.length t.data then begin
      let data = Array.make (max 8 (2 * t.size)) 0 in
      Array.blit t.data 0 data 0 t.size;
      t.data <- data
    end;
    let data = t.data and x = (k lsl value_bits) lor v in
    let i = ref t.size in
    t.size <- t.size + 1;
    while !i > 0 && data.((!i - 1) / 2) > x do
      let p = (!i - 1) / 2 in
      data.(!i) <- data.(p);
      i := p
    done;
    data.(!i) <- x

  let min_key t =
    if t.size = 0 then raise Not_found;
    t.data.(0) lsr value_bits

  let pop t =
    if t.size = 0 then raise Not_found;
    let data = t.data in
    let top = data.(0) land value_mask in
    let size = t.size - 1 in
    t.size <- size;
    let x = data.(size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= size then sifting := false
      else begin
        let c = if l + 1 < size && data.(l + 1) < data.(l) then l + 1 else l in
        if data.(c) < x then begin
          data.(!i) <- data.(c);
          i := c
        end
        else sifting := false
      end
    done;
    data.(!i) <- x;
    top
end
