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
    of a budgeted solve ({!for_solve}); unbudgeted solves are never
    touched, so exact-solver tests stay exact under any schedule. *)

type t = {
  max_wall_s : float option;  (** monotonic wall-clock cap, seconds *)
  max_steps : int option;  (** solver-step cap (augmentations / pushes+relabels) *)
}

(** No cap at all; {!check} never fires. *)
val unlimited : t

val make : ?max_wall_s:float -> ?max_steps:int -> unit -> t
val pp : Format.formatter -> t -> unit

(** Why a budgeted solve was stopped. *)
type reason =
  | Wall_clock of float  (** the wall cap, seconds *)
  | Steps of int  (** the step cap *)
  | Injected  (** the [solve.exhaust] failpoint forced exhaustion *)

val pp_reason : Format.formatter -> reason -> unit

(** Mutable per-solve accounting; a backend gets its state from
    {!for_solve} at the top of each solve. *)
type state

(** [start budget] begins accounting, with no failpoint evaluated. *)
val start : t -> state

(** [spend st n] records [n] solver steps. *)
val spend : state -> int -> unit

(** Steps recorded so far. *)
val steps : state -> int

(** [for_solve ?budget ()] is the state a backend solves under: [None]
    without a budget — an unbudgeted solve has no degraded path to
    absorb a fault, so it is never perturbed — else a fresh state for
    [budget] after the solver failpoints are evaluated, in this order:
    [solve.exhaust] ([trip]: the next {!check} reports {!Injected}),
    then [solve.delay] ([delay(s)]: the wall clock is aged by [s]
    seconds, as if the solve had run that much longer; it never
    sleeps). *)
val for_solve : ?budget:t -> unit -> state option

(** [check st] is [Some reason] once the budget is exhausted (sticky),
    [None] while within budget.  Checks, in order: a sticky prior
    verdict, injected exhaustion, the step cap, the wall cap.  Reads the
    monotonic clock only when a wall cap is actually set. *)
val check : state -> reason option
