(** Flavor vectors (§4.3 of the paper).

    A PolyReq assigns every task group a flavor vector [f] over
    {0, 1, x}: each coordinate is one decision variable of the job.  The
    job's *active* flavor [x̂] starts all-[x]; the scheduler overwrites
    coordinates with 0/1 as it takes flavor decisions.  A task group is

    - {e materialized} when every non-[x] coordinate of [f] is already
      fixed identically in [x̂],
    - {e dropped} when some coordinate contradicts [x̂] (0 vs 1),
    - {e flavor-undecided} otherwise ([x̂] still has [x] where [f] is
      decided). *)

type bit = Zero | One | X
type t = bit array

val all_x : int -> t
val length : t -> int

(** Relation of a task group's flavor to a job's active flavor. *)
type status = Materialized | Undecided | Dropped

val status : active:t -> t -> status

(** [apply ~active f] overwrites each [x] coordinate of [active] that is
    decided in [f], returning the new active flavor.  Raises
    [Invalid_argument] on contradiction or length mismatch. *)
val apply : active:t -> t -> t

(** [compatible a b] iff no coordinate has 0 in one and 1 in the other. *)
val compatible : t -> t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Builder used by the model transformer: allocates one-hot decision
    bits for the variants of each multi-variant composite. *)
module Builder : sig
  type builder

  val create : unit -> builder

  (** [alternatives b n] reserves [n] fresh coordinates for an [n]-way
      exclusive choice and returns, for each variant, the flavor fragment
      as a list of (coordinate, bit) pairs: variant [i] holds [One] at
      its own coordinate and [Zero] at its siblings'. *)
  val alternatives : builder -> int -> (int * bit) list array

  (** Number of coordinates allocated so far. *)
  val size : builder -> int

  (** [finalize b fragment] pads a fragment into a full flavor vector of
      the builder's final size ([X] everywhere else). *)
  val finalize : builder -> (int * bit) list -> t
end
