(** Sorting (cost, index) pairs packed into single ints, exactly as the
    stdlib [Array.sort] would sort them by cost alone.

    An entry packs a non-negative cost above {!index_bits} bits of
    index: [pack ~cost ~index = cost lsl index_bits lor index].  {!sort}
    compares entries by {!cost} only, never by the index, and runs the
    ternary heapsort of OCaml 5.1's [Array.sort] step for step: the same
    comparisons, so the same moves, so the same permutation — equal
    costs end up in the (unstable) order [Array.sort] gives them.  The
    difference is that it allocates nothing and calls no closure. *)

(** Bits of index below the cost: 21, so at most [2{^21}] entries. *)
val index_bits : int

(** [pack ~cost ~index] raises [Invalid_argument] unless
    [0 <= cost < 2{^40}] and [0 <= index < 2{^21}]. *)
val pack : cost:int -> index:int -> int

val cost : int -> int
val index : int -> int

(** [sort a n] sorts [a.(0) .. a.(n-1)] by {!cost}, permuting them as
    [Array.sort (fun x y -> Int.compare (cost x) (cost y))] permutes
    [Array.sub a 0 n].  Entries from [n] on are not touched.  Raises
    [Invalid_argument] if [n] is negative or exceeds [Array.length a]. *)
val sort : int array -> int -> unit
