(** CSV export of metric reports, mirroring the paper artifact's
    per-simulation stats files: one row per ⟨scheduler, μ, setup, seed⟩
    cell so the sweep can be re-plotted outside OCaml. *)

val header : string

(** [row ~scheduler ~mu ~setup ~seed report] renders one CSV line (no
    trailing newline).  [faults] appends the fault columns and
    [resilience] the solver-resilience columns; without them the row
    matches the pre-fault format byte for byte. *)
val row :
  ?faults:bool ->
  ?resilience:bool ->
  scheduler:string ->
  mu:float ->
  setup:Cluster.inc_setup ->
  seed:int ->
  Metrics.report ->
  string

(** [write_file path rows] writes header + rows ([faults]/[resilience]
    append, in this order, the fault columns (node_fails …
    downtime_p50_s) and the solver-resilience columns (degraded_rounds
    … salvaged_tasks) to {!header} — pass rows rendered with the same
    flags). *)
val write_file : ?faults:bool -> ?resilience:bool -> string -> string list -> unit
