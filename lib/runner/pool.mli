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

(** How cells are evaluated (docs/RUNNER.md).

    - [Fork] (the default): one forked child process per cell, results
      marshalled back over a pipe.  Full isolation: crashes are
      contained and timeouts enforced with [SIGKILL].
    - [Domains]: a fixed pool of OCaml 5 domains pulling cells off a
      shared atomic counter inside {e this} process.  No fork or
      marshalling cost and shared-memory parallelism on multicore, but
      no isolation: timeouts are ignored, a diverging cell hangs the
      pool, and [f] must not touch process-global mutable state — run
      with obs off and without [HIRE_FAILPOINTS].
    - [Inline]: sequential in-process evaluation (the no-fork escape
      hatch; timeouts ignored). *)
type mode = Fork | Domains | Inline

(** [map ~f items] runs [f] on every item.

    @param jobs concurrent worker processes (default 1; clamped to >= 1).
    @param timeout per-attempt wall-clock budget in seconds; on expiry
      the child is SIGKILLed and the attempt fails with {!Timed_out}.
      Default: no timeout.
    @param retries extra attempts after a failed one (default 1); after
      [1 + retries] failures the cell settles on a structured failure —
      other cells are unaffected.
    @param isolate [false] runs every cell in-process (no fork): used
      when per-process instrumentation must accumulate in the caller.
      Timeouts are not enforceable in-process and are ignored; a raising
      [f] still yields {!Child_error}.  Default [true].  Kept as the
      historical boolean spelling of [mode]; [mode], when given, wins.
    @param mode evaluation strategy ({!mode}); default [Fork] when
      [isolate], [Inline] otherwise.
    @param label used in [log] lines (default: the item's index).
    @param log per-cell progress sink (default: silent).  In [Domains]
      mode it is called from worker domains, serialized by a mutex. *)
val map :
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?isolate:bool ->
  ?mode:mode ->
  ?label:('a -> string) ->
  ?log:(string -> unit) ->
  f:('a -> 'b) ->
  'a list ->
  'b cell list
