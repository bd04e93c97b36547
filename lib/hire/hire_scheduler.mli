(** The HIRE scheduler (§5): drives one flow-network round per
    invocation, tracks pending PolyReqs, applies flavor decisions, and
    reports placements for the cluster to execute.

    The scheduler owns only scheduling state (pending jobs, active
    flavors, the task census feeding the locality cost terms); resource
    ledgers are owned by the caller and read through {!View.t}. *)

(** Solver-resilience policy (docs/RESILIENCE.md).  Every round runs
    a fallback chain: the configured MCMF backend under [budget], then
    the other backend under the same budget, then the {!Greedy}
    best-effort placer — so a round always terminates with whatever
    progress was affordable.  [guard_every] = n > 0 additionally runs
    the {!Guard} invariant checks on every n-th solve's live solution
    before it is applied; a violation quarantines the solution and the
    chain advances to the next backend.  With no budget and no guard
    (the default, [resilience ()]) the first rung always accepts: one
    unbounded solve per round. *)
type resilience = {
  budget : Flow.Budget.t option;  (** per-solve-attempt budget; [None] = unbounded *)
  guard_every : int;  (** check every n-th solve; [<= 0] disables the guard *)
}

val resilience : ?budget:Flow.Budget.t -> ?guard_every:int -> unit -> resilience

type config = {
  params : Cost_model.params;
  simple_flavor : bool;
      (** the paper's ablation (§6.3): decide once per job whether the
          whole PolyReq runs with INC or without *)
  solver : Flow_network.solver;  (** MCMF algorithm for the rounds *)
  resilience : resilience;  (** the default is [resilience ()] *)
  incremental : bool;
      (** [true] (the default) keeps a persistent {!Flow_network.builder}
          and SSP scratch workspace across rounds: the topology part of
          the network is patched from the cluster's dirty set instead of
          rebuilt, and solver buffers are reused.  Placements and
          objective values are bit-identical either way; [false]
          rebuilds everything from scratch each round and is the
          reference path the end-to-end identity tests compare against. *)
}

val default_config : config

type t

val create : ?config:config -> View.t -> t
val name : t -> string

(** Register a new PolyReq at [time]. *)
val submit : t -> time:float -> Poly_req.t -> unit

(** Some submitted task group still has tasks to place. *)
val pending_work : t -> bool

(** Number of jobs currently tracked. *)
val pending_jobs : t -> int

(** Per-round resilience report.  A round that had nothing to solve,
    or whose first rung accepted an undegraded solve, reports all
    zeros. *)
type round_resilience = {
  degraded : bool;
      (** the applied result came from a budget-truncated solve or from
          the greedy placer *)
  fallback_depth : int;
      (** chain rungs abandoned before one was applied: 0 = primary
          backend, 1 = secondary, 2 = greedy *)
  guard_trips : int;  (** solutions quarantined by the guard this round *)
  salvaged : int;
      (** tasks placed by a degraded rung — progress that a fail-stop
          scheduler would have discarded *)
}

type round_outcome = {
  placements : (Poly_req.task_group * int) list;
      (** one task of the group on the machine — the caller must charge
          its ledgers accordingly *)
  cancelled : Poly_req.task_group list;
      (** groups dropped by flavor decisions this round *)
  fallbacks : int;  (** jobs whose flavor timed out to the server variant *)
  flavor_decisions : (int * bool) list;
      (** (job_id, decided variant contains INC) flavor picks this round *)
  solver : Flow.Mcmf.result option;  (** [None] when there was nothing to do *)
  graph_nodes : int;
  graph_arcs : int;
  resilience : round_resilience;
}

(** Execute one scheduling round at simulation time [time]. *)
val run_round : t -> time:float -> round_outcome

(** Notify that a task of [tg_id] finished on [machine] (updates the
    locality census). *)
val on_task_complete : t -> tg_id:int -> machine:int -> unit

(** Fault path: the simulator cancelled [tg_id] after exhausting its
    retry budget — zero its remaining count everywhere so no further
    placements are attempted. *)
val drop_task_group : t -> tg_id:int -> unit

(** The census (exposed for tests). *)
val census : t -> Locality.Task_census.t

(** Journal-checkpoint serialization (docs/JOURNAL.md): the pending
    queue in submission order, the solve counter, and the locality
    census — everything needed so a freshly created scheduler behaves
    identically after [restore].  The flow-network builder and solver
    scratch are caches and deliberately excluded; the first
    post-restore round rebuilds them (bit-identical results either
    way).  [restore] raises {!Prelude.Codec.Error} on malformed
    blobs. *)
val snapshot : t -> string

val restore : t -> string -> unit
