(** Deterministic fault plans: a time-ordered script of node failures
    and recoveries, generated from exponential MTBF/MTTR draws per node
    (the renewal model used by DCSim-style co-simulators) or written by
    hand for tests.

    A plan is a pure value; the simulator replays it as
    [Node_fail]/[Node_recover] events.  Per node the events strictly
    alternate Fail → Recover → Fail … at strictly increasing times, so a
    plan can never take a dead node down again.  Reproducibility: the
    same {!config}, seed, node sets, and horizon yield the identical
    plan. *)

type kind = Fail | Recover

type event = {
  time : float;  (** simulated seconds *)
  node : int;  (** fat-tree node id (server or switch) *)
  kind : kind;
}

type t

(** MTBF/MTTR in simulated seconds (exponential renewal per node).
    [inc_weight] scales the failure {e rate} of INC-capable switches
    ([> 1.0] makes them fail more often — the paper's premise that
    programmable-switch state is the fragile resource). *)
type config = {
  server_mtbf : float;
  server_mttr : float;
  switch_mtbf : float;
  switch_mttr : float;
  inc_weight : float;
}

(** MTBF 200 s (servers) / 400 s (switches), MTTR 30 s, weight 1. *)
val default_config : config

(** [generate config rng ~servers ~switches ~horizon] draws a plan: per
    node an alternating fail/repair renewal process with the configured
    means, truncated so that every failure happens at or before
    [horizon] (matching recoveries may land later).  [inc_capable]
    applies [config.inc_weight] to the switches it selects.
    @raise Invalid_argument on non-positive means or weight. *)
val generate :
  ?inc_capable:(int -> bool) ->
  config ->
  Prelude.Rng.t ->
  servers:int array ->
  switches:int array ->
  horizon:float ->
  t

(** [scripted events] sorts and validates an explicit plan.  Test hook:
    the tools draw every plan with {!generate}; a test scripts exact
    failure and recovery times, which no seed can be picked to give.
    @raise Invalid_argument unless per-node events strictly alternate
    Fail/Recover at strictly increasing, finite, non-negative times. *)
val scripted : event list -> t

(** Events in replay order: by time, ties by node id then kind. *)
val events : t -> event list

val is_empty : t -> bool
val length : t -> int
