(** Polymorphic resource requests (PolyReq, §4.3): the scheduler-facing
    form of a job, produced from a CompReq by the model transformer.

    A PolyReq is a set of connected task groups.  Server task groups run
    on servers (demand over CPU/memory); network task groups run on INC
    switches (demand over recirculation/stages/SRAM).  Task groups carry
    flavor vectors making alternative implementations mutually exclusive
    ([alt]); network groups additionally carry the sharable per-switch
    registration demand exploited by non-linear sharing ([nol]). *)

module Vec = Prelude.Vec

type network_info = {
  service : string;
  shape : Comp_store.shape;
  per_switch : Vec.t;
      (** sharable registration demand charged once per (service, switch) *)
  role : string;  (** "", or "spine"/"leaf" for two-tier overlays *)
}

type kind = Server_tg | Network_tg of network_info

type task_group = {
  tg_id : int;  (** unique across the simulation *)
  job_id : int;
  comp_id : string;
  kind : kind;
  count : int;  (** tasks (server) or switch slots (network) *)
  demand : Vec.t;  (** per task, in the dimensions of its machine class *)
  duration : float;
  flavor : Flavor.t;
  connected : int list;  (** tg_ids with communication dependencies *)
}

type t = {
  job_id : int;
  priority : Workload.Job.priority;
  arrival : float;
  flavor_len : int;
  task_groups : task_group list;
}

val is_network : task_group -> bool
val service_of : task_group -> string option

(** Task groups that request INC resources. *)
val network_groups : t -> task_group list

val has_inc : t -> bool
val total_tasks : t -> int
val pp : Format.formatter -> t -> unit
