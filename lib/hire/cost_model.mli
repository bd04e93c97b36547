(** The HIRE cost model (Appendix A, Tab. 4/Tab. 5).

    Every edge of the flow network carries a multi-dimensional cost
    vector σ⃗ whose components (utilization, multiplexing, locality,
    interference, priority) are produced by the Φ functions below, each
    in [\[0,1\]].  Before the MCMF solve, σ⃗ is flattened by its uniform
    average, a per-edge-type penalty is added, and the result is scaled
    to an integer ([cost_scale] units per 1.0), which is what the solver
    consumes. *)

module Vec = Prelude.Vec

type params = {
  cost_scale : int;  (** integer units per 1.0 of flattened cost *)
  pref_lower : float;  (** Φpref lower waiting-time bound, seconds (paper: 0.5) *)
  pref_upper : float;
      (** Φpref upper bound and flavor-decision timeout, seconds (paper: 2.0) *)
  w_threshold : float;  (** Φw threshold, seconds (paper: 0.5) *)
  gamma : int;  (** initial INC locality gain γ for Alg. 1 *)
  xi : int;  (** decay divisor ξ for Alg. 1 *)
  max_shortcuts : int;
      (** shortcut edges per task group (paper: 50): each group keeps its
          [max_shortcuts] cheapest candidates, equal costs ordered as
          [Array.sort] orders the reversed generation sequence
          ({!Flow_network.build}) *)
  max_flavor_decisions : int;  (** flavor decisions per round (paper: 250) *)
  max_queue_tgs : int;  (** requesting task groups in the graph (paper: 800) *)
  locality_aware : bool;
      (** false ⇒ Φloc is neutral (CoCo++ retrofit: "ignore topologies") *)
  sharing_aware : bool;
      (** false ⇒ Φnew is neutral and registrations are never shared
          (CoCo++ retrofit: "ignore sharing") *)
  server_fallback_penalty : float;
      (** extra flattened cost on F→G edges of a job's server-fallback
          variant while an INC variant is open.  The paper's primary goal
          is serving INC requests (§6.3) and notes the flatten weights
          "can be used to model priorities or other custom policies"
          (App. A); this weight encodes the tenant's preference for the
          INC implementation it asked for.  Feasibility still dominates:
          an INC variant without any feasible shortcut carries the
          expensive sentinel estimate and loses regardless. *)
}

val default_params : params

(** [flatten components ~penalty params] averages the σ⃗ components
    with uniform weights, adds the penalty, and scales to a
    non-negative integer.  Test hook: only the edge prices of this
    module call it; the tests pin its clamp and scaling, and check the
    loop-form shortcut and to-sink costs bit for bit against it. *)
val flatten : float list -> penalty:float -> params -> int

(* ------------------------------------------------------------------ *)
(* Φ functions (Tab. 5)                                               *)
(* ------------------------------------------------------------------ *)

(** Φ⌊P⌋: active INC services on a switch over the maximum it could
    host — penalizes mixing many services on one switch. *)
val phi_floor_p : active:int -> max_possible:int -> float

(** ΦToR: distance of a switch from its closest server, normalized —
    ToRs cost 0, cores cost 1. *)
val phi_tor : Topology.Fat_tree.t -> switch:int -> float

(** Φloc: joint server/INC locality; [upsilon] is Eq. 6's Υ (already
    normalized), [gamma_norm] the normalized Γ of Alg. 1, and
    [server_weight] ∈ [0,1] the task-count weight of the server side.
    Returns 0.5 (neutral) when nothing related is placed yet
    ([related_placed = false]), whatever the other arguments are, so
    callers may skip computing Υ and Γ in that case. *)
val phi_loc :
  related_placed:bool -> upsilon:float -> gamma_norm:float -> server_weight:float -> float

(** Φnew: 0 when the group's service is already active on the switch;
    otherwise 1/(δ+1) with δ the switch's active-service fraction. *)
val phi_new : service_active:bool -> n_active:int -> max_possible:int -> float

(** Φpref (penalty on F→G): 3·(−tanh(ratio·3 − 3)) for waiting time
    within [lower, upper]; 3 below; 0 above — young jobs should rather
    wait than take an expensive flavor. *)
val phi_pref : waiting:float -> params -> float

(** Φprio: 0 for the highest priority class, 1 for the lowest. *)
val phi_prio : Workload.Job.priority -> float

(** Φdelay (G→P): postponing cost growing with waiting time and with the
    fraction of the group already scheduled:
    w·e^(placed/total) / (max_w·e). *)
val phi_delay : waiting:float -> max_waiting:float -> placed:int -> total:int -> float

(** Φw (F→P): 1 above the threshold, else ½·cos((ratio−1)·π)+½. *)
val phi_w : waiting:float -> params -> float

(** Φx̂ (F→G): a flavor's estimated total cost relative to the job's most
    expensive flavor. *)
val phi_xhat : estimate:float -> max_estimate:float -> float

(* ------------------------------------------------------------------ *)
(* Edge-cost assembly (Tab. 4 rows)                                   *)
(* ------------------------------------------------------------------ *)

(** Ms→K: avg utilization + inverted balance of a server whose ledger
    holds [available] of [capacity].  Reads both vectors in place.
    @raise Invalid_argument if their dimensions differ. *)
val ms_to_k : capacity:Vec.t -> available:Vec.t -> params -> int

(** Mn→K: utilization, balance, ΦToR, Φ⌊P⌋ of a switch whose ledger
    holds [available] of [capacity].  Reads both vectors in place.
    @raise Invalid_argument if their dimensions differ. *)
val mn_to_k :
  capacity:Vec.t -> available:Vec.t -> phi_tor:float -> phi_floor:float -> params -> int

(** Gs→Ns/Ms shortcut: demand fit (avg and stddev of d ⊘ r), Φloc,
    constant interference 1, Φprio. *)
val gs_shortcut :
  demand:Vec.t -> available:Vec.t -> phi_loc:float -> phi_prio:float -> params -> int

(** Gn→Nn/Mn shortcut: demand fit, best-fit head-room (packs scarce
    switch resources tightly), Φloc, Φnew, Φprio. *)
val gn_shortcut :
  demand:Vec.t ->
  available:Vec.t ->
  capacity:Vec.t ->
  phi_loc:float ->
  phi_new:float ->
  phi_prio:float ->
  params ->
  int

(** G→P: Φdelay + penalty 5. *)
val g_to_p : phi_delay:float -> params -> int

(** F→G: Φx̂ + penalty Φpref (+ the server-fallback preference weight for
    non-INC variants of INC-requesting jobs). *)
val f_to_g : phi_xhat:float -> phi_pref:float -> ?fallback:bool -> params -> int

(** F→P: Φw + penalty 3. *)
val f_to_p : phi_w:float -> params -> int

(** S→F: penalty 1. *)
val s_to_f : params -> int
