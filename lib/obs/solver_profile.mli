(** Per-solve profile of a min-cost max-flow run.

    Both solver backends ({!Flow.Mcmf.solve} and
    {!Flow.Cost_scaling.solve}) attach one of these records to their
    result; {!emit} publishes it through the tracer and registry so the
    CLI, benches, and regression tests see solver behaviour without
    touching solver internals.

    Fields that do not apply to a backend are [0]: successive shortest
    paths reports [augmentations] but no [phases]/[pushes]/[relabels];
    cost scaling is the reverse. *)

type t = {
  solver : string;  (** ["ssp"] or ["cost-scaling"] *)
  nodes : int;  (** nodes in the solved network *)
  arcs : int;  (** arcs in the solved network *)
  augmentations : int;  (** shortest-path augmentations (SSP) *)
  phases : int;  (** epsilon-scaling phases (cost scaling) *)
  pushes : int;  (** push operations (cost scaling) *)
  relabels : int;  (** relabel operations (cost scaling) *)
  scratch_reused : bool;  (** solve ran entirely in a reused workspace *)
  stages : (string * float) list;
      (** per-stage wall seconds, e.g. [("dijkstra", 0.8)]; empty when
          instrumentation was disabled during the solve *)
  wall_s : float;  (** total wall seconds of the solve *)
}

(** A profile with the given [solver] name and every numeric field zero.
    Solvers return this shape (with sizes filled in) when
    instrumentation is disabled. *)
val zero : solver:string -> t

(** [emit t] publishes [t]: a ["solver_profile"] trace event carrying
    every field (stages flattened as ["stage.<name>"]), the
    ["flow.solves"] counter, and the ["flow.solve_s"] histogram.  Call
    under an [Obs.enabled ()] guard. *)
val emit : t -> unit
