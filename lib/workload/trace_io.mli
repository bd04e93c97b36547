(** CSV import/export of job traces.

    The synthetic generator ({!Trace_gen}) stands in for the Alibaba 2018
    trace; this module lets users who *do* have a real trace (or any
    pre-processed workload) replay it instead, and lets experiments dump
    the exact stream they replayed.

    Format (header required, one row per task group):
    {[ job_id,arrival_s,priority,tg_index,count,cpu,mem,duration_s ]}
    with [priority ∈ {batch, service}].  Rows of one job must share
    [job_id], [arrival_s], and [priority]; jobs are emitted sorted by
    arrival. *)

(** [to_csv jobs] renders a trace (header + rows). *)
val to_csv : Job.t list -> string

(** [of_csv contents] parses a trace.  Returns a descriptive error on
    malformed input (wrong column counts, unparsable numbers, negative
    values, inconsistent job rows). *)
val of_csv : string -> (Job.t list, string) result

val write_file : string -> Job.t list -> unit
val read_file : string -> (Job.t list, string) result
