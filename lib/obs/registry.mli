(** Global registry of named counters, gauges, and histograms.

    Any layer can obtain an instrument by name ({!counter}, {!gauge},
    {!histogram}); the first call creates it, later calls return the
    same instance, so call sites need no shared plumbing.  Names are
    dot-separated, lowercase, most-general component first —
    ["sched.yarn-sim.queue_depth"] (the full inventory lives in
    [docs/OBSERVABILITY.md]).

    Like the tracer, updates MUST be guarded by [Obs.enabled ()] at the
    call site; the registry itself never checks the switch. *)

(** Monotone counter. *)
type counter

(** Last-write-wins value. *)
type gauge

(** [counter name] is the counter registered under [name], created on
    first use. *)
val counter : string -> counter

(** [incr ?by c] adds [by] (default 1) to [c]. *)
val incr : ?by:int -> counter -> unit

(** [gauge name] is the gauge registered under [name], created on first
    use. *)
val gauge : string -> gauge

(** [set g v] records the latest value of [g]. *)
val set : gauge -> float -> unit

(** [histogram name] is the (default-layout) histogram registered under
    [name], created on first use. *)
val histogram : string -> Histogram.t

(** Registered counters as sorted [(name, value)] pairs. *)
val counters : unit -> (string * int) list

(** Registered gauges as sorted [(name, value)] pairs. *)
val gauges : unit -> (string * float) list

(** Registered histograms as sorted [(name, histogram)] pairs. *)
val histograms : unit -> (string * Histogram.t) list

(** Remove every registered instrument (tests and multi-run drivers). *)
val reset : unit -> unit

(** Print every non-empty instrument, one per line, sorted by name. *)
val pp_summary : Format.formatter -> unit -> unit
