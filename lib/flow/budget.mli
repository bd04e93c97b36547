(** Solve budgets: bounded work for the min-cost max-flow backends.

    A budget caps a single solve by monotonic wall-clock seconds
    ({!Prelude.Clock}) and/or by solver steps (SSP augmentations;
    cost-scaling pushes + relabels).  Both backends consult the budget
    at their natural work boundaries — before each augmentation, at each
    discharge/phase step — so exhaustion is detected promptly without
    per-arc overhead.

    On exhaustion the SSP backend stops and returns the partial flow it
    has built so far, which is a valid min-cost flow {e for its value}
    (every SSP prefix is; it passes {!Verify.check}) and is flagged
    [degraded] so callers can salvage it or fall back.  The cost-scaling
    backend holds only a pseudoflow mid-run, so it aborts cleanly:
    the graph's flow is reset to zero and the result reports everything
    unshipped.

    The [solve.exhaust] and [solve.delay] failpoints
    (docs/FAILPOINTS.md) can force exhaustion or handicap the wall clock
    of a budgeted solve ({!inject}); unbudgeted solves are never
    touched, so exact-solver tests stay exact under any schedule.

    {b Concurrency.} A {!state} is owned by exactly one domain — the one
    running the solve — and its fields are plain mutable cells.  The one
    cross-domain channel is the optional cancellation flag passed to
    {!start}: any other domain may set that [bool Atomic.t] at any time,
    and the owning solve observes it at its next {!check} (the same
    step-granular hook that detects wall/step exhaustion) and stops with
    {!Cancelled}.  This is how the portfolio race ({!Portfolio},
    docs/PARALLELISM.md) tells losing backends to stop. *)

type t = {
  max_wall_s : float option;  (** monotonic wall-clock cap, seconds *)
  max_steps : int option;  (** solver-step cap (augmentations / pushes+relabels) *)
}

(** No cap at all; {!check} never fires. *)
val unlimited : t

val make : ?max_wall_s:float -> ?max_steps:int -> unit -> t
val is_unlimited : t -> bool
val pp : Format.formatter -> t -> unit

(** Why a budgeted solve was stopped. *)
type reason =
  | Wall_clock of float  (** the wall cap, seconds *)
  | Steps of int  (** the step cap *)
  | Injected  (** the [solve.exhaust] failpoint forced exhaustion *)
  | Cancelled  (** the {!start} cancellation flag was set by another domain *)

val pp_reason : Format.formatter -> reason -> unit

(** Mutable per-solve accounting; create one with {!start} at the top of
    each solve (or hand a pre-started state to the solver via its [?ctl]
    parameter).  Owned by the solving domain; never share one state
    between domains. *)
type state

(** [start ?cancel budget] begins accounting.  [cancel], when given, is
    an externally owned atomic flag: once any domain sets it to [true],
    the next {!check} on this state reports {!Cancelled} (sticky, like
    every other exhaustion verdict).  Setting the flag is the only
    operation on a running solve that is safe from another domain. *)
val start : ?cancel:bool Atomic.t -> t -> state

(** [spend st n] records [n] solver steps. *)
val spend : state -> int -> unit

(** Steps recorded so far. *)
val steps : state -> int

(** Age the wall clock by [s] seconds (the solve appears to have run
    that much longer). *)
val inject_delay : state -> float -> unit

(** The next {!check} reports {!Injected}. *)
val force_exhaustion : state -> unit

(** [inject st] evaluates the solver failpoints for one budgeted solve,
    in this order: [solve.exhaust] ([trip]: {!force_exhaustion}), then
    [solve.delay] ([delay(s)]: {!inject_delay} — the clock is aged, the
    solve never sleeps).  Only the coordinator domain may call it: a
    racing solve never evaluates failpoints, the portfolio replay calls
    this on its behalf in the serial chain's order. *)
val inject : state -> unit

(** [for_solve ?budget ?ctl ()] is the state a backend solves under:
    [ctl] as is (a portfolio race's pre-started state, whose failpoints
    the coordinator owns), else a fresh state for [budget] with {!inject}
    applied, else [None] — an unbudgeted solve has no degraded path to
    absorb a fault, so it is never perturbed. *)
val for_solve : ?budget:t -> ?ctl:state -> unit -> state option

(** [check st] is [Some reason] once the budget is exhausted (sticky),
    [None] while within budget.  Checks, in order: a sticky prior
    verdict, injected exhaustion, the cancellation flag, the step cap,
    the wall cap.  Reads the monotonic clock only when a wall cap is
    actually set, and the cancellation atomic only when one was given
    to {!start}. *)
val check : state -> reason option
