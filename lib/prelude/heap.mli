(** Imperative binary min-heap, parameterised by an ordering, and a
    packed (int key, int value) min-heap.

    The generic heap serves the discrete-event simulator's
    pending-event queue ([Sim.Event_queue]); the MCMF solver's
    Dijkstra uses {!Int_pair}. *)

type 'a t

(** [create ~cmp] makes an empty heap ordered by [cmp] (minimum first). *)
val create : cmp:('a -> 'a -> int) -> 'a t

val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> 'a -> unit

(** [pop t] removes and returns the minimum element.
    @raise Not_found when empty. *)
val pop : 'a t -> 'a

val clear : 'a t -> unit

(** [to_list t] returns the elements in unspecified order. *)
val to_list : 'a t -> 'a list

(** Monomorphic (int key, int value) min-heap on one int array: an
    entry is packed as [key lsl 21 lor value].  Allocation-free in
    steady state: [clear] keeps the array, so a heap held across
    Dijkstra runs never reallocates once warmed up.

    Ordering is the lexicographic (key, value) order, which is integer
    order on the packed entries: among equal keys the smaller value
    pops first.  The MCMF solver's Dijkstra breaks its ties between
    equally short paths by this order (test_prelude pins it).  There is
    deliberately no decrease-key: Dijkstra pushes a new entry per
    improvement and skips stale ones at pop time. *)
module Int_pair : sig
  type t

  val create : unit -> t
  val is_empty : t -> bool

  (** Reset to empty, keeping the backing array for reuse. *)
  val clear : t -> unit

  (** [push t key value].  @raise Invalid_argument unless
      [0 <= key < 2{^41}] and [0 <= value < 2{^21}]. *)
  val push : t -> int -> int -> unit

  (** Key of the minimum entry.  @raise Not_found when empty. *)
  val min_key : t -> int

  (** Remove the minimum entry and return its {e value} (read the key
      with {!min_key} first if needed).  @raise Not_found when empty. *)
  val pop : t -> int
end
