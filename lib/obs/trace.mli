(** Low-overhead structured event tracer.

    Events are appended to a global ring buffer ({!emit}); the newest
    [capacity] records survive.  Each record carries a monotonically
    increasing sequence number, the simulation clock at emission time
    (set by the driving simulator via {!set_sim_time}), the wall clock,
    a severity, an event name, and a list of typed fields.

    Emission sites MUST be guarded by [Obs.enabled ()] — {!emit} itself
    does not check the switch, so an unguarded call both allocates its
    arguments and records the event.  The guard convention keeps the
    disabled-mode cost to a single load-and-branch per site.

    An optional JSONL sink ({!open_jsonl}) additionally streams every
    emitted record to a file, one JSON object per line (schema in
    [docs/OBSERVABILITY.md]). *)

(** Severity of a trace record. *)
type level = Debug | Info | Warn

(** A typed field value. *)
type value = Int of int | Float of float | Str of string | Bool of bool

(** One trace record. *)
type record = {
  seq : int;  (** global emission index, starting at 1 *)
  t_sim : float;  (** simulation clock (last {!set_sim_time}) *)
  t_wall : float;  (** wall clock at emission *)
  level : level;
  name : string;  (** event name, e.g. ["solver_profile"] *)
  fields : (string * value) list;
}

(** [set_sim_time t] updates the simulation clock stamped onto
    subsequent records. *)
val set_sim_time : float -> unit

(** [emit ?level name fields] appends a record (default level
    {!Info}) and streams it to the JSONL sink when one is open. *)
val emit : ?level:level -> string -> (string * value) list -> unit

(** Newest-last list of the retained records. *)
val records : unit -> record list

(** Number of records currently retained (≤ capacity). *)
val length : unit -> int

(** [set_capacity n] empties the ring and resizes it to [n] records
    (default capacity 65536).  Test hook: the tools keep the default;
    a test shrinks the ring to see it wrap, or grows it to keep every
    record of a run.
    @raise Invalid_argument when [n <= 0]. *)
val set_capacity : int -> unit

(** Drop all retained records and reset the sequence counter.  Leaves
    the JSONL sink and the simulation clock untouched. *)
val clear : unit -> unit

(** [open_jsonl path] opens (truncates) [path] and streams every
    subsequently emitted record to it.  Replaces any previous sink. *)
val open_jsonl : string -> unit

(** Flush and close the JSONL sink, if any. *)
val close_jsonl : unit -> unit

(** [to_json r] is the single-line JSON rendering of [r] (no trailing
    newline) — exactly what the JSONL sink writes.  Test hook: the sink
    is its only caller; a test renders a record it builds by hand,
    with a sequence number and clocks that {!emit} cannot be made to
    stamp. *)
val to_json : record -> string

(** [field r key] is the value of [key] in [r.fields], if present. *)
val field : record -> string -> value option
