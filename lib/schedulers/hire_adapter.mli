(** Adapter exposing the HIRE scheduler ({!Hire.Hire_scheduler}) through
    the simulator's scheduler interface.  Charges the cluster ledgers for
    the placements HIRE decides (with sharing enabled — HIRE tracks
    [nol]) and models think time as a function of flow-network size, as
    the paper calibrates (§6.2). *)

val create :
  ?simple_flavor:bool ->
  ?params:Hire.Cost_model.params ->
  ?solver:Hire.Flow_network.solver ->
  ?shared:bool ->
  ?resilience:Hire.Hire_scheduler.resilience ->
  ?incremental:bool ->
  ?name:string ->
  Sim.Cluster.t ->
  Sim.Scheduler_intf.t
