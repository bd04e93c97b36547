(** Runtime state of submitted-but-unfinished PolyReqs, shared by the
    flow-network builder and the HIRE scheduler: per task group the
    remaining task count and the machines already used; per job the
    active flavor x̂ (§5.3 "flow network updates"). *)

type tg_state = {
  tg : Poly_req.task_group;
  mutable remaining : int;  (** tasks still to place *)
  mutable placed_on : int list;  (** machines already hosting a task (multiset) *)
  flavor_key : string;
      (** [Flavor.to_string tg.flavor], made once: the network builder
          groups a job's undecided groups into variants by it *)
}

type job_state = {
  poly : Poly_req.t;
  mutable x_hat : Flavor.t;
  tg_states : tg_state array;
  mutable inc_flavor_locked : bool;
      (** set once the job's flavor is fully decided or forced *)
}

val of_poly : Poly_req.t -> job_state

(** Status of a task group under the job's current active flavor. *)
val status : job_state -> tg_state -> Flavor.status

val materialized : job_state -> tg_state list
val undecided : job_state -> tg_state list
val dropped : job_state -> tg_state list

(** [decide job tg] applies [tg]'s flavor to the job's x̂ (a flavor
    decision made by the scheduler).  Returns the task groups that the
    decision *drops*. *)
val decide : job_state -> tg_state -> tg_state list

(** [force_server_fallback job] decides every still-undecided composite
    in favour of its server variant — used when the flavor-decision
    timeout (Φpref upper bound) fires.  Returns dropped groups. *)
val force_server_fallback : job_state -> tg_state list

(** [place job tg ~machine] records one task placed. *)
val place : job_state -> tg_state -> machine:int -> unit

(** A job still needs scheduling while some non-dropped group has
    remaining tasks. *)
val has_pending_work : job_state -> bool

(** Some flavor bit of the job is still undecided and relevant. *)
val flavor_open : job_state -> bool

val find_tg : job_state -> int -> tg_state option
