(** Fork-based worker pool: one child process per cell.

    Each item is evaluated by [f] inside a forked child; the result is
    marshalled back to the parent over a pipe.  Isolation buys three
    things a thread pool cannot give an OCaml simulation sweep: cells
    run on all cores without sharing a runtime, a crashing or diverging
    cell cannot take down the sweep, and a wall-clock timeout can be
    enforced with [SIGKILL].

    Determinism: results are returned {e in input order} regardless of
    completion order, and a cell's result is a pure marshalled value, so
    [map ~jobs:4] and [map ~jobs:1] return identical lists. *)

(** Why a cell's final attempt did not produce a value. *)
type reason =
  | Timed_out of float  (** exceeded the per-cell wall-clock budget (s) *)
  | Crashed of string
      (** the child died without a payload: killed by a signal, nonzero
          exit, or a truncated/unreadable result *)
  | Child_error of string  (** [f] raised; carries [Printexc.to_string] *)

val reason_to_string : reason -> string

(** Outcome of one cell after retries: the final attempt's result, how
    many attempts were made (1 = no retry), and the wall-clock seconds
    of the final attempt. *)
type 'b cell = { result : ('b, reason) result; attempts : int; wall_s : float }

(** [map ~f items] runs [f] on every item.

    @param jobs concurrent worker processes (default 1; clamped to >= 1).
    @param timeout per-attempt wall-clock budget in seconds; on expiry
      the child is SIGKILLed and the attempt fails with {!Timed_out}.
      Default: no timeout.
    @param retries extra attempts after a failed one (default 1); after
      [1 + retries] failures the cell settles on a structured failure —
      other cells are unaffected.
    @param isolate [true] (the default) runs each cell in a forked
      child; [false] runs every cell sequentially in-process, the
      reference path the forked pool is tested against.  Timeouts are not enforceable in-process
      and are ignored; a raising [f] still yields {!Child_error}.
    @param label used in [log] lines (default: the item's index).
    @param log per-cell progress sink (default: silent); called from
      this process only. *)
val map :
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?isolate:bool ->
  ?label:('a -> string) ->
  ?log:(string -> unit) ->
  f:('a -> 'b) ->
  'a list ->
  'b cell list
