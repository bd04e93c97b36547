(** Admission-API wire protocol (docs/SERVER.md).

    Newline-delimited JSON over a stream socket: each request is one
    JSON object on one line, each response one JSON object on one line.
    The grammar is fixed by the ["op"] field:

    {v
    {"op":"submit","priority":"batch"|"service",
     "groups":[{"count":N,"cpu":F,"mem":F,"duration":F}, ...],
     "inc":"none"|"auto"|"<service>",   (optional, default "none")
     "client_id":"<key>"}               (optional idempotency key)
    {"op":"status","id":N}
    {"op":"stats"}
    {"op":"drain"}
    {"op":"shutdown"}
    v}

    Every response carries ["ok"]: [true] plus op-specific fields, or
    [false] plus ["error"].  Parsing and validation are total: hostile
    input yields [Error], never an exception, and nothing reaches the
    journal until a request has fully validated. *)

(** How the submission wants its composites treated for in-network
    acceleration: none, harness-style random augmentation ([Auto], the
    μ path of {!Sim.Scenario}), or a specific CompStore service. *)
type inc = No_inc | Auto | Service of string

type job_spec = {
  priority : Workload.Job.priority;
  groups : Workload.Job.task_group list;  (** 1..{!max_groups}, validated *)
  inc : inc;
  client_id : string option;
      (** idempotency key: resubmitting the same key returns the
          original admission id instead of journaling a duplicate *)
}

type request =
  | Submit of job_spec
  | Status of int
  | Stats
  | Drain  (** flush pending admissions and run the sim to quiescence *)
  | Shutdown

(** Longest request or response line the server accepts, newline
    included.  A connection that exceeds it gets a structured error and
    is closed — an unbounded line is a memory-exhaustion vector. *)
val max_line_bytes : int

val max_groups : int  (** per submission; matches the trace generator's cap *)

(** Parse and validate one request line.  [Error] messages are
    single-line and safe to echo back to the client. *)
val parse_request : string -> (request, string) result

(** {1 Response rendering} — one line, no trailing newline. *)

(** [ok fields] renders [{"ok":true, ...fields}]. *)
val ok : (string * Json.t) list -> string

(** [err msg] renders [{"ok":false,"error":msg}]. *)
val err : string -> string

(** The structured shedding error of degraded mode
    ([{"ok":false,"error":"degraded","retriable":true}]): the server is
    read-only after a storage failure; retry with backoff, reusing the
    idempotency key (docs/FAILPOINTS.md). *)
val err_degraded : string

(** Render a submit request line — the client-side inverse of
    {!parse_request}, used by [hire_client] and the load generator. *)
val render_submit : job_spec -> string
