(** Composite resource requests (CompReq, §4.2).

    A CompReq is a directed graph of composites.  Each composite is
    derived from a CompStore template, always carries a server-based
    implementation (the fallback — INC-enabled applications can by
    definition run without INC), and optionally lists INC services as
    mutually-exclusive alternative implementations to be chosen by the
    scheduler at runtime ([alt]).

    Edges between composites declare communication dependencies and
    drive the locality terms of the cost model ([loc]). *)

type server_spec = {
  instances : int;  (** number of tasks (containers) *)
  cpu : float;
  mem : float;
  duration : float;  (** seconds of runtime per task *)
}

type composite = {
  comp_id : string;
  template : string;  (** template name in the CompStore *)
  base : server_spec;  (** the server-based implementation *)
  inc_alternatives : string list;  (** candidate INC service names *)
}

type t = {
  priority : Workload.Job.priority;
  composites : composite list;
  connections : (string * string) list;  (** pairs of [comp_id]s *)
}

(** [validate store t] checks that composite ids are unique, templates
    and services exist in [store], every INC alternative is listed by its
    template, connections reference existing composites, and specs are
    positive.  Returns an error message on failure. *)
val validate : Comp_store.t -> t -> (unit, string) result

(** [composite t id] finds a composite by id. *)
val composite : t -> string -> composite option

(** [of_job store job] lifts a raw workload job into a server-only
    CompReq (one composite per task group, connected in a chain — the
    groups of a job communicate). *)
val of_job : Workload.Job.t -> t

val pp : Format.formatter -> t -> unit
