(** Time-ordered event queue for the discrete-event simulator.  Events
    with equal timestamps are delivered in insertion order (a strict
    total order keeps simulations deterministic). *)

type 'a t

val create : unit -> 'a t

(** [push q ~time ev] schedules [ev]; [time] must be finite. *)
val push : 'a t -> time:float -> 'a -> unit

(** Earliest event with its timestamp, removing it. *)
val pop : 'a t -> (float * 'a) option

val is_empty : 'a t -> bool
val size : 'a t -> int

(** Journal-checkpoint support (docs/JOURNAL.md).  [entries] exports the
    pending events as [(time, seq, payload)] sorted by insertion
    sequence; [next_seq] is the next sequence number to be assigned.
    [restore] replaces the queue's contents with previously exported
    entries and sets the sequence counter, so tie-break order — which
    the sequence numbers define — survives a checkpoint round-trip
    exactly.
    @raise Invalid_argument on non-finite times or sequence numbers
    outside [\[0, next_seq)]. *)
val entries : 'a t -> (float * int * 'a) list

val next_seq : 'a t -> int
val restore : 'a t -> next_seq:int -> (float * int * 'a) list -> unit
