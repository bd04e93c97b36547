(** Seeded, named failpoint registry (docs/FAILPOINTS.md) — the one
    fault-injection mechanism of the repository.

    A failpoint is a named site in the solver, durability or network
    stack ([solve.exhaust], [journal.write], [net.accept], ...) where a
    fault can be injected deterministically: the site calls {!eval} on
    its hot path and acts on the returned {!outcome}, exactly as it
    would on the real failure.  Sites cost one list lookup when the
    registry is armed and one [ref]-load branch when it is not, so
    production paths stay free.

    Activation: the [HIRE_FAILPOINTS] environment variable, resolved
    lazily on first use (or at startup via {!init_env}/{!announce}), a
    seed, and per-site named RNG streams so one site's draw sequence
    depends only on how many times {e that site} was evaluated.  Tests
    pin the registry programmatically with {!activate}/{!set}.

    {2 Grammar}

    {[ HIRE_FAILPOINTS="seed=42;journal.fsync=1*eio;journal.crash=40*off->crash(5)" ]}

    Terms are separated by [;] (or [,]).  [seed=N] seeds every site
    stream (default 0).  Every other term is [site=spec] with

    {[ spec ::= "off" | term ("->" term)*
       term ::= [P%][N*]action[(arg)] ]}

    [P%] fires with probability [P/100] per evaluation (default:
    always); [N*] fires at most [N] times, then the term goes quiet
    (default: unlimited).  Chained terms are tried left to right and
    the first that fires decides, as in Rust's [fail] crate: a term
    that is used up or loses its draw falls through to the next.
    Actions: [enospc] [eio] [epipe] [econnreset] [econnaborted] [emfile]
    [etimedout] (POSIX errors), [short(k)] (write only [k] bytes, then
    fail), [delay(s)] (stall [s] seconds), [trip] (the site's own
    argument-free fault), [crash(tear)] (write [tear] bytes, then die),
    [off] (inject nothing; with a count it holds the site quiet for that
    many evaluations).  A bare [off] spec disarms the site.  Parsing is
    all-or-nothing: a rejected value leaves the registry untouched. *)

(** What an armed site tells its caller to do.  A site acts on the
    actions its catalog row lists and ignores the rest. *)
type outcome =
  | Errno of Unix.error  (** fail as if the syscall returned this errno *)
  | Short of int  (** land only [k] bytes of the write, then fail *)
  | Delay of float  (** stall for [s] seconds, then proceed normally *)
  | Trip  (** the site's own argument-free fault *)
  | Crash of int  (** land [tear] bytes of the write, then die *)

(** Arm the registry programmatically (clears every site). *)
val activate : seed:int -> unit

(** Disarm every site; {!eval} returns [None] everywhere.  Test hook:
    the binaries arm the registry once, from the environment, and never
    disarm it; the tests disarm it after every case so that no schedule
    leaks into the next one. *)
val deactivate : unit -> unit

(** Parse a full [HIRE_FAILPOINTS]-shaped value into the registry.
    @raise Invalid_argument on an unparseable term, with the registry
    unchanged. *)
val load : string -> unit

(** Resolve [HIRE_FAILPOINTS] from the environment now (no-op when
    unset; the registry also resolves lazily on first {!eval}).
    @raise Invalid_argument on an unparseable value. *)
val init_env : unit -> unit

(** {!init_env}, then, when armed, one
    [fault injection armed: failpoints <describe>] line on stderr.
    Binaries call it first thing, so a typo'd schedule exits before any
    work and a failure log always says whether faults were injected.
    @raise Invalid_argument on an unparseable value. *)
val announce : unit -> unit

(** [set site spec] arms one site from a [spec] (see grammar); ["off"]
    is equivalent to {!clear}.  Activates the registry with seed 0 if
    nothing is armed yet.
    @raise Invalid_argument on an unparseable spec, with the registry
    unchanged. *)
val set : string -> string -> unit

val clear : string -> unit

(** [eval site] draws this site's next decision: [None] (proceed) or
    the armed {!outcome}.  When a site fires and observability is on,
    counts [failpt.fired] and [failpt.fired.<site>]. *)
val eval : string -> outcome option

(** [stream site] is the site's private RNG stream while it is armed,
    for a fault that needs further draws once {!eval} fired ([flow.corrupt]
    picks its arc and sign from it). *)
val stream : string -> Prelude.Rng.t option

(** One-line description of the armed registry for startup logs:
    ["seed=42 journal.fsync=1*eio ..."]; [""] when disarmed. *)
val describe : unit -> string
