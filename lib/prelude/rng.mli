(** Deterministic pseudo-random number generation.

    Every stochastic component of the simulator takes an explicit [Rng.t]
    so that experiments are reproducible from a seed, as in the paper's
    artifact (three seeds per experiment).  The generator is SplitMix64:
    tiny state, good statistical quality, and a well-defined [split] for
    deriving independent streams. *)

type t

(** [create seed] returns a fresh generator deterministically derived from
    [seed]. *)
val create : int -> t

(** [split t] returns a new generator statistically independent from the
    future outputs of [t].  [t] itself advances. *)
val split : t -> t

(** [copy t] duplicates the current state (both copies then produce the
    same stream). *)
val copy : t -> t

(** [int t bound] draws a uniform integer in [\[0, bound)].  [bound] must
    be positive. *)
val int : t -> int -> int

(** [int_in t lo hi] draws a uniform integer in [\[lo, hi\]] (inclusive). *)
val int_in : t -> int -> int -> int

(** [float t bound] draws a uniform float in [\[0, bound)]. *)
val float : t -> float -> float

(** [float_in t lo hi] draws a uniform float in [\[lo, hi)]. *)
val float_in : t -> float -> float -> float

(** [bool t] draws a fair coin flip. *)
val bool : t -> bool

(** [bernoulli t p] is [true] with probability [p]. *)
val bernoulli : t -> float -> bool

(** [exponential t ~mean] draws from an exponential distribution. *)
val exponential : t -> mean:float -> float

(** [log_normal t ~mu ~sigma] draws from a log-normal distribution with
    the given parameters of the underlying normal. *)
val log_normal : t -> mu:float -> sigma:float -> float

(** [normal t ~mu ~sigma] draws from a normal distribution
    (Box–Muller). *)
val normal : t -> mu:float -> sigma:float -> float

(** [choose t arr] picks a uniform element of a non-empty array. *)
val choose : t -> 'a array -> 'a

(** [sample_without_replacement t ~n arr] returns [min n (length arr)]
    distinct elements drawn uniformly from [arr]. *)
val sample_without_replacement : t -> n:int -> 'a array -> 'a list

(** [sample_in_place t ~n arr ~len] draws the same sample from the
    prefix [arr.(0 .. len - 1)] without copying it: it shuffles the
    prefix in place and returns [k = max 0 (min n len)], and
    [arr.(0 .. k - 1)] is the list {!sample_without_replacement} would
    return for that prefix, with the same draws from [t].  Sparrow++
    samples from a reused buffer through it. *)
val sample_in_place : t -> n:int -> 'a array -> len:int -> int

(** [weighted_choice t items] picks an element with probability
    proportional to its non-negative weight.  The total weight must be
    positive. *)
val weighted_choice : t -> (float * 'a) list -> 'a
