(** Small fixed-length float vectors used as multi-dimensional resource
    quantities (demands, capacities, utilizations).

    Vectors are plain [float array]s; all binary operations require equal
    lengths and raise [Invalid_argument] otherwise. *)

type t = float array

(** Tolerance of the comparisons below: {!le} forgives coordinates up
    to [eps] over, {!div} treats a divisor below [eps] in magnitude as
    zero, {!is_zero} and {!equal} compare within [eps]. *)
val eps : float

val create : int -> float -> t
val of_list : float list -> t
val dim : t -> int
val copy : t -> t
val zero : int -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

(** Element-wise (Hadamard) product. *)
val mul : t -> t -> t

(** Element-wise (Hadamard) division, the paper's [⊘]; division by zero
    yields zero in that coordinate (a zero-capacity dimension contributes
    no load). *)
val div : t -> t -> t

(** In-place accumulation: [add_into acc v] adds [v] to [acc]. *)
val add_into : t -> t -> unit

val sub_into : t -> t -> unit

(** [fits ~demand ~available] iff every coordinate of [demand] is <=
    the matching coordinate of [available] (with a small epsilon
    tolerance for float accumulation drift). *)
val fits : demand:t -> available:t -> bool

val avg : t -> float
val stddev : t -> float
val dot : t -> t -> float

(** [is_zero v] iff every coordinate is (nearly) zero. *)
val is_zero : t -> bool

val clamp_nonneg : t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
