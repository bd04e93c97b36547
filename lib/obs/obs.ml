(** Observability layer: structured tracing, counters/histograms, and
    solver profiling.

    Everything is off by default; flip the switch with {!set_enabled}
    (the CLIs' [--trace]/[--obs-summary] flags and bench/perf's
    [--trace 1] do).  Instrumented call
    sites follow one convention:

    {[
      if Obs.enabled () then
        Obs.Trace.emit "task_place" [ ("tg", Obs.Trace.Int tg_id) ]
    ]}

    Because the emission call sits inside the branch, a disabled run
    pays one load-and-branch per site and allocates nothing — see
    [test/test_obs.ml] for the test pinning that down.

    - {!Trace} — ring-buffered structured events with an optional JSONL
      sink.
    - {!Registry} — named counters, gauges, and histograms.
    - {!Histogram} — log-scale histograms (also used standalone by
      [Sim.Metrics]).
    - {!Solver_profile} — per-solve MCMF profile record.

    Event and instrument inventory: [docs/OBSERVABILITY.md]. *)

module Histogram = Histogram
module Trace = Trace
module Registry = Registry
module Solver_profile = Solver_profile

(** [enabled ()] is [true] while instrumentation is on.  See
    {!Control.enabled}. *)
let enabled = Control.enabled

(** Flip the global instrumentation switch.  See {!Control.set_enabled}. *)
let set_enabled = Control.set_enabled

(** Wall-clock seconds ([Unix.gettimeofday]).  See {!Control.now_wall}. *)
let now_wall = Control.now_wall
