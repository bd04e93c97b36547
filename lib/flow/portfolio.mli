(** Parallel solver portfolio: race MCMF backends on OCaml 5 domains.

    The HIRE artifact races several Firmament MCMF solvers and uses the
    first finisher (PAPER.md §2).  This module supplies the mechanism:
    each {!job} gets a {e private deep snapshot} of the flow network
    ({!Graph.copy}) and runs on its own domain, with a per-job
    {!Budget.state} carrying an atomic cancellation flag; losing jobs
    are told to stop through that flag and observe it at their next
    budget check.

    Winner selection is {e deterministic-priority}, not first-finisher:
    the coordinator consults finished jobs in the listed order and the
    [decide] callback applies the same accept/reject procedure the
    serial fallback chain uses, so the raced outputs are identical to
    the serial chain's for any finishing order or cancellation timing —
    only the latency changes (from the {e sum} of the attempted rungs'
    times to roughly their {e max}).  The full architecture —
    domain topology, snapshot immutability contract, cancellation
    protocol, obs quiescence, determinism guarantees — is documented in
    docs/PARALLELISM.md.

    Obs note: the race quiesces the global obs switch from before the
    first spawn until after the last join (worker domains read the flag
    once at solve entry and must never emit).  [decide] therefore runs
    with obs disabled and must not try to emit; callers re-emit
    winner-side accounting after {!race} returns.  {!race} itself emits
    [flow.portfolio.*] win/loss/cancel counters and race-latency
    histograms once obs is restored. *)

(** One racing backend.  [run ~ctl g] must solve [g] — the job's private
    snapshot — honouring [ctl] as its budget state (pass it as the
    solver's [?ctl] parameter so cancellation and budget caps are
    polled at step granularity), and must not touch any global mutable
    state (obs, failpoints, shared scratch). *)
type job = { name : string; run : ctl:Budget.state -> Graph.t -> Mcmf.result }

(** Post-race view of one job, in input order. *)
type entry = {
  name : string;
  ran : bool;  (** [false] only in lazy mode for jobs after the winner *)
  result : Mcmf.result option;  (** [None] if the job never ran or raised *)
  graph : Graph.t;
      (** the job's private snapshot, holding whatever flow it built *)
  ctl : Budget.state option;
      (** the job's budget state; [Budget.check] gives the sticky
          exhaustion verdict ([Cancelled] for stopped losers) *)
  wall_s : float;  (** job wall time as measured around its [run] *)
  cancel_requested : bool;  (** the coordinator set its cancel flag *)
}

type outcome = {
  winner : int option;  (** index of the first accepted job *)
  entries : entry array;
  race_wall_s : float;  (** spawn of the first to join of the last *)
  eager : bool;  (** the spawn policy actually used *)
}

(** [true] when the host has at least two cores
    ([Domain.recommended_domain_count]): the default spawn policy. *)
val default_eager : unit -> bool

(** [race ?eager ~budget ~source ~decide jobs] runs the portfolio.

    With [eager] (default {!default_eager}): spawn every job upfront on
    its own domain, then join and [decide] them in listed
    (priority) order; at the first acceptance, set the remaining jobs'
    cancellation flags and join them.  Without [eager] (single-core
    hosts): run jobs inline in listed order, stopping at the first
    acceptance — same decisions, serial cost, and jobs after the winner
    never run ([ran = false]).

    [budget] is started per job on the job's own domain (so wall caps
    measure the job's real start).  [decide i entry] is called on the
    coordinator, in priority order, with obs quiesced; it must be
    obs-silent and deterministic given the entry.  Every spawned domain
    is joined before [race] returns, even when [decide] raises.

    @raise Invalid_argument on an empty job list; worker exceptions are
    re-raised on the coordinator after all joins. *)
val race :
  ?eager:bool ->
  budget:Budget.t ->
  source:Graph.t ->
  decide:(int -> entry -> bool) ->
  job list ->
  outcome
