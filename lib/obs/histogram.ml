type t = {
  lo : float;
  log_gamma : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let create ?(lo = 1e-6) ?(decades = 13) ?(buckets_per_decade = 20) () =
  if lo <= 0.0 then invalid_arg "Histogram.create: lo must be positive";
  if decades <= 0 || buckets_per_decade <= 0 then
    invalid_arg "Histogram.create: decades and buckets_per_decade must be positive";
  {
    lo;
    log_gamma = Float.log 10.0 /. float_of_int buckets_per_decade;
    counts = Array.make (decades * buckets_per_decade) 0;
    underflow = 0;
    overflow = 0;
    count = 0;
    sum = 0.0;
    vmin = infinity;
    vmax = neg_infinity;
  }

let observe t v =
  if not (Float.is_nan v) then begin
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v;
    if v < t.lo then t.underflow <- t.underflow + 1
    else begin
      let i = int_of_float (Float.log (v /. t.lo) /. t.log_gamma) in
      if i >= Array.length t.counts then t.overflow <- t.overflow + 1
      else t.counts.(max 0 i) <- t.counts.(max 0 i) + 1
    end
  end

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let max_value t = t.vmax

let bucket_repr t i = t.lo *. Float.exp (t.log_gamma *. (float_of_int i +. 0.5))

let quantile t q =
  if t.count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = Float.max 1.0 (Float.ceil (q *. float_of_int t.count)) in
    let target = int_of_float target in
    let clamp v = Float.max t.vmin (Float.min t.vmax v) in
    if t.underflow >= target then clamp t.vmin
    else begin
      let cum = ref t.underflow in
      let result = ref t.vmax in
      (try
         for i = 0 to Array.length t.counts - 1 do
           cum := !cum + t.counts.(i);
           if !cum >= target then begin
             result := bucket_repr t i;
             raise Exit
           end
         done
       with Exit -> ());
      clamp !result
    end
  end

let same_layout a b =
  a.lo = b.lo && a.log_gamma = b.log_gamma && Array.length a.counts = Array.length b.counts

let merge_into dst src =
  if not (same_layout dst src) then invalid_arg "Histogram.merge_into: layouts differ";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.underflow <- dst.underflow + src.underflow;
  dst.overflow <- dst.overflow + src.overflow;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  if src.vmin < dst.vmin then dst.vmin <- src.vmin;
  if src.vmax > dst.vmax then dst.vmax <- src.vmax

let copy t = { t with counts = Array.copy t.counts }

let merged = function
  | [] -> create ()
  | h :: tl ->
      let acc = copy h in
      List.iter (merge_into acc) tl;
      acc

let cdf_points ~points t =
  if t.count = 0 || points <= 0 then []
  else
    List.init points (fun i ->
        let f = float_of_int (i + 1) /. float_of_int points in
        (quantile t f, f))

let ccdf_points ~points t =
  if t.count = 0 || points <= 0 then []
  else
    List.init points (fun i ->
        let f = float_of_int i /. float_of_int points in
        (quantile t f, 1.0 -. f))

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

let to_raw t =
  {
    r_lo = t.lo;
    r_log_gamma = t.log_gamma;
    r_counts = Array.copy t.counts;
    r_underflow = t.underflow;
    r_overflow = t.overflow;
    r_count = t.count;
    r_sum = t.sum;
    r_vmin = t.vmin;
    r_vmax = t.vmax;
  }

let of_raw r =
  {
    lo = r.r_lo;
    log_gamma = r.r_log_gamma;
    counts = Array.copy r.r_counts;
    underflow = r.r_underflow;
    overflow = r.r_overflow;
    count = r.r_count;
    sum = r.r_sum;
    vmin = r.r_vmin;
    vmax = r.r_vmax;
  }

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.underflow <- 0;
  t.overflow <- 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.vmin <- infinity;
  t.vmax <- neg_infinity

let pp_summary fmt t =
  if t.count = 0 then Format.pp_print_string fmt "n=0"
  else
    Format.fprintf fmt "n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g" t.count (mean t)
      (quantile t 0.5) (quantile t 0.95) (quantile t 0.99) t.vmax
