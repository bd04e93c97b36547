(** Log-scale histograms with exact count/sum/min/max and approximate
    quantiles (p50/p95/p99, …).

    Buckets are geometric: bucket [i] covers
    [\[lo·γ^i, lo·γ^(i+1))] with [γ = 10^(1/buckets_per_decade)], so the
    relative quantile error is bounded by half a bucket (≈ 5.9% at the
    default 20 buckets per decade).  Values below [lo] (including zero
    and negatives) land in a dedicated underflow bin represented by the
    exact minimum; values beyond the covered range land in an overflow
    bin represented by the exact maximum.

    Two histograms created with the same layout parameters can be merged
    ({!merge_into}, {!merged}); this is how multi-seed experiment cells
    aggregate their per-seed distributions. *)

type t

(** [create ()] makes an empty histogram.  The default layout — [lo] =
    1e-6, 13 decades, 20 buckets per decade — covers 1 µs to 10 Ms and
    suits both placement latencies and solver wall times in seconds.
    @param lo lower bound of the first bucket (must be positive)
    @param decades number of powers of ten covered
    @param buckets_per_decade resolution within a decade *)
val create : ?lo:float -> ?decades:int -> ?buckets_per_decade:int -> unit -> t

(** [observe t v] records one sample.  NaN samples are ignored. *)
val observe : t -> float -> unit

(** Number of recorded samples. *)
val count : t -> int

(** Exact sum of all recorded samples. *)
val sum : t -> float

(** Exact arithmetic mean; [0.] when empty. *)
val mean : t -> float

(** Exact maximum; [neg_infinity] when empty. *)
val max_value : t -> float

(** [quantile t q] estimates the [q]-quantile ([q] in [\[0,1\]],
    clamped).  Returns the bucket's geometric midpoint clamped into
    the exact range of the observed values; [0.] when the histogram is
    empty. *)
val quantile : t -> float -> float

(** [merge_into dst src] adds [src]'s samples to [dst].
    @raise Invalid_argument when the layouts differ. *)
val merge_into : t -> t -> unit

(** [merged ts] is a fresh histogram holding all samples of [ts]
    (an empty default-layout histogram when [ts] is empty). *)
val merged : t list -> t

(** [cdf_points ~points t] is [points] evenly spaced
    [(value, cumulative-fraction)] pairs of the empirical CDF; [[]] when
    empty. *)
val cdf_points : points:int -> t -> (float * float) list

(** [ccdf_points ~points t] is the complementary CDF:
    [(value, fraction-above)] pairs; [[]] when empty. *)
val ccdf_points : points:int -> t -> (float * float) list

(** Complete internal state, exposed for external serialization (the
    journal checkpoints histograms through this).  [of_raw (to_raw t)]
    is bit-identical to [t] — quantiles, means, and printed summaries
    all reproduce exactly. *)
type raw = {
  r_lo : float;
  r_log_gamma : float;
  r_counts : int array;
  r_underflow : int;
  r_overflow : int;
  r_count : int;
  r_sum : float;
  r_vmin : float;
  r_vmax : float;
}

val to_raw : t -> raw
val of_raw : raw -> t

(** Drop all samples, keeping the layout. *)
val clear : t -> unit

(** One-line summary: count, mean, p50/p95/p99, max. *)
val pp_summary : Format.formatter -> t -> unit
