(* Unit and property tests for the prelude library: RNG, heap, stats,
   vectors, cost sort, codec. *)

open Prelude

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Rng.int a 1000) (Rng.int b 1000)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_int_in_bounds () =
  let r = Rng.create 4 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_rng_uniformity () =
  (* Chi-square-ish sanity: each of 10 buckets should get 10% +- 2%. *)
  let r = Rng.create 5 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "bucket near 0.1" true (frac > 0.08 && frac < 0.12))
    counts

let test_rng_float_bounds () =
  let r = Rng.create 6 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 3.0 in
    Alcotest.(check bool) "in [0,3)" true (v >= 0.0 && v < 3.0)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 8 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~mean:2.0
  done;
  let m = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 2" true (m > 1.9 && m < 2.1)

let test_rng_bernoulli () =
  let r = Rng.create 10 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p near 0.3" true (frac > 0.28 && frac < 0.32)

let test_rng_sample_without_replacement () =
  let r = Rng.create 13 in
  let arr = Array.init 20 (fun i -> i) in
  let s = Rng.sample_without_replacement r ~n:8 arr in
  Alcotest.(check int) "size" 8 (List.length s);
  Alcotest.(check int) "distinct" 8 (List.length (List.sort_uniq compare s));
  let s_all = Rng.sample_without_replacement r ~n:100 arr in
  Alcotest.(check int) "clamped to population" 20 (List.length s_all)

(* The sampler's output for one seed, recorded before it shared its
   body with [sample_in_place].  Cluster creation (INC-capable switches
   and heterogeneous services) and Sparrow++ draw from it, so any drift
   in its draws or its order shows here first. *)
let test_rng_sample_pinned () =
  let ints = Alcotest.(list int) in
  let r = Rng.create 2024 in
  Alcotest.check ints "8 of 20" [ 17; 7; 14; 19; 10; 2; 3; 9 ]
    (Rng.sample_without_replacement r ~n:8 (Array.init 20 (fun i -> i)));
  Alcotest.check ints "3 of 5" [ 103; 102; 100 ]
    (Rng.sample_without_replacement r ~n:3 [| 100; 101; 102; 103; 104 |]);
  Alcotest.check ints "none" [] (Rng.sample_without_replacement r ~n:0 [| 1; 2; 3 |]);
  Alcotest.check ints "all 7" [ 30; 0; 20; 50; 60; 10; 40 ]
    (Rng.sample_without_replacement r ~n:100 (Array.init 7 (fun i -> 10 * i)));
  Alcotest.check ints "empty" [] (Rng.sample_without_replacement r ~n:2 [||]);
  Alcotest.(check int) "next draw" 537843 (Rng.int r 1_000_000);
  (* The in-place form draws the same sample from a buffer's prefix and
     leaves the rest of the buffer alone. *)
  let r = Rng.create 2024 in
  let buf = Array.append (Array.init 20 (fun i -> i)) [| -1; -2 |] in
  let k = Rng.sample_in_place r ~n:8 buf ~len:20 in
  Alcotest.check ints "in place: 8 of 20" [ 17; 7; 14; 19; 10; 2; 3; 9 ]
    (Array.to_list (Array.sub buf 0 k));
  Alcotest.check ints "in place: tail untouched" [ -1; -2 ] (Array.to_list (Array.sub buf 20 2));
  Alcotest.(check int) "in place: none" 0 (Rng.sample_in_place r ~n:(-1) buf ~len:20)

let test_rng_weighted_choice () =
  let r = Rng.create 14 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.weighted_choice r [ (3.0, `A); (1.0, `B) ] = `A then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "A near 0.75" true (frac > 0.72 && frac < 0.78)

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 2; 3 ];
  Alcotest.(check int) "size" 5 (Heap.size h);
  let out = List.init 5 (fun _ -> Heap.pop h) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] out;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_empty_pop () =
  let h : int Heap.t = Heap.create ~cmp:compare in
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Heap.pop h))

let test_heap_clear () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let out = List.init (List.length xs) (fun _ -> Heap.pop h) in
      out = List.sort compare xs)

(* [Heap.Int_pair] pops in (key, value) order, ties to the smaller
   value, whatever the push order: the MCMF Dijkstra's tie-breaking
   between equally short paths rests on it.  Even rounds draw keys from
   8 values, so most entries tie; values are distinct, so the expected
   order is unambiguous. *)
let test_int_pair_tie_order () =
  let rng = Rng.create 42 in
  let h = Heap.Int_pair.create () in
  for round = 1 to 20 do
    Heap.Int_pair.clear h;
    let n = 50 + (round * 37) in
    let key_range = if round mod 2 = 0 then 8 else 300 in
    let entries =
      List.init n (fun v -> (Rng.int_in rng 0 (key_range - 1), (v * 7919) mod 100003))
    in
    List.iter (fun (k, v) -> Heap.Int_pair.push h k v) entries;
    let popped =
      List.init n (fun _ ->
          let k = Heap.Int_pair.min_key h in
          (k, Heap.Int_pair.pop h))
    in
    let expected =
      List.sort
        (fun (k1, v1) (k2, v2) -> if k1 <> k2 then Int.compare k1 k2 else Int.compare v1 v2)
        entries
    in
    Alcotest.(check (list (pair int int))) "pops in (key, value) order" expected popped;
    Alcotest.(check bool) "drained" true (Heap.Int_pair.is_empty h)
  done

(* Interleaved pushes ([Some]) and pops ([None]) against a sorted-list
   model: every pop returns the least (key, value) pair still held.
   Keys come from 8 small values, so most entries tie, or from the top
   of the key range, next to the sign bit of the packed entry. *)
let prop_int_pair_interleaved =
  let max_key = (1 lsl 41) - 1 and max_value = (1 lsl 21) - 1 in
  QCheck.Test.make ~name:"int-pair interleaved pushes and pops" ~count:500
    QCheck.(
      list_of_size Gen.(int_range 0 400)
        (option (triple bool (int_range 0 7) (int_range 0 max_value))))
    (fun ops ->
      let h = Heap.Int_pair.create () in
      let model = ref [] in
      let pop () =
        let k = Heap.Int_pair.min_key h in
        let v = Heap.Int_pair.pop h in
        match !model with
        | m :: rest ->
            model := rest;
            m = (k, v)
        | [] -> false
      in
      List.for_all
        (function
          | Some (big, k, v) ->
              let k = if big then max_key - k else k in
              Heap.Int_pair.push h k v;
              model := List.merge Stdlib.compare [ (k, v) ] !model;
              not (Heap.Int_pair.is_empty h)
          | None -> Heap.Int_pair.is_empty h = (!model = []) && (!model = [] || pop ()))
        ops
      && List.for_all (fun _ -> pop ()) !model
      && Heap.Int_pair.is_empty h)

(* A key outside [0, 2^41) or a value outside [0, 2^21) does not fit
   the packed entry and is refused; the extremes that fit round-trip. *)
let test_int_pair_range () =
  let h = Heap.Int_pair.create () in
  let refused = Invalid_argument "Heap.Int_pair.push: out of range" in
  List.iter
    (fun (name, k, v) ->
      Alcotest.check_raises name refused (fun () -> Heap.Int_pair.push h k v))
    [
      ("negative key", -1, 0);
      ("key 2^41", 1 lsl 41, 0);
      ("min_int key", min_int, 0);
      ("negative value", 0, -1);
      ("value 2^21", 0, 1 lsl 21);
    ];
  Alcotest.(check bool) "nothing pushed" true (Heap.Int_pair.is_empty h);
  Heap.Int_pair.push h ((1 lsl 41) - 1) ((1 lsl 21) - 1);
  Heap.Int_pair.push h 0 0;
  let pop () =
    let k = Heap.Int_pair.min_key h in
    (k, Heap.Int_pair.pop h)
  in
  Alcotest.(check (pair int int)) "least first" (0, 0) (pop ());
  Alcotest.(check (pair int int)) "largest round-trips" ((1 lsl 41) - 1, (1 lsl 21) - 1) (pop ())

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Stats.mean [])

let test_stats_stddev () =
  check_float "stddev" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]);
  check_float "single" 0.0 (Stats.stddev [ 5.0 ])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p0" 1.0 (Stats.percentile 0.0 xs);
  check_float "p50" 3.0 (Stats.percentile 50.0 xs);
  check_float "p100" 5.0 (Stats.percentile 100.0 xs);
  check_float "p25" 2.0 (Stats.percentile 25.0 xs)

let test_stats_percentile_interpolates () =
  let xs = [ 0.0; 10.0 ] in
  check_float "p50 interp" 5.0 (Stats.percentile 50.0 xs)

let test_stats_percentile_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile 50.0 []))

let test_stats_cdf_points () =
  let pts = Stats.cdf_points ~points:4 [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "4 points" 4 (List.length pts);
  let last_v, last_f = List.nth pts 3 in
  check_float "last value" 4.0 last_v;
  check_float "last frac" 1.0 last_f

let test_stats_ccdf_complements () =
  let cdf = Stats.cdf_points ~points:5 [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  let ccdf = Stats.ccdf_points ~points:5 [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  List.iter2
    (fun (_, f) (_, cf) -> check_float "f + ccdf = 1" 1.0 (f +. cf))
    cdf ccdf

let test_stats_acc () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 1.0; 5.0; 3.0 ];
  Alcotest.(check int) "count" 3 (Stats.Acc.count acc);
  check_float "mean" 3.0 (Stats.Acc.mean acc);
  check_float "min" 1.0 (Stats.Acc.min acc);
  check_float "max" 5.0 (Stats.Acc.max acc);
  check_float "total" 9.0 (Stats.Acc.total acc)

let test_stats_reservoir_small () =
  let r = Stats.Reservoir.create ~capacity:100 (Rng.create 1) in
  for i = 1 to 50 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  Alcotest.(check int) "keeps all below capacity" 50
    (List.length (Stats.Reservoir.samples r));
  Alcotest.(check int) "count" 50 (Stats.Reservoir.count r)

let test_stats_reservoir_bounded () =
  let r = Stats.Reservoir.create ~capacity:10 (Rng.create 2) in
  for i = 1 to 1000 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  Alcotest.(check int) "bounded" 10 (List.length (Stats.Reservoir.samples r));
  Alcotest.(check int) "count sees all" 1000 (Stats.Reservoir.count r)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let p25 = Stats.percentile 25.0 xs
      and p50 = Stats.percentile 50.0 xs
      and p75 = Stats.percentile 75.0 xs in
      p25 <= p50 && p50 <= p75)

(* ------------------------------------------------------------------ *)
(* Vec                                                                *)
(* ------------------------------------------------------------------ *)

let vec = Alcotest.testable Prelude.Vec.pp Prelude.Vec.equal

let test_vec_arith () =
  let a = Vec.of_list [ 1.0; 2.0 ] and b = Vec.of_list [ 3.0; 4.0 ] in
  Alcotest.check vec "add" (Vec.of_list [ 4.0; 6.0 ]) (Vec.add a b);
  Alcotest.check vec "sub" (Vec.of_list [ -2.0; -2.0 ]) (Vec.sub a b);
  Alcotest.check vec "scale" (Vec.of_list [ 2.0; 4.0 ]) (Vec.scale 2.0 a);
  Alcotest.check vec "mul" (Vec.of_list [ 3.0; 8.0 ]) (Vec.mul a b)

let test_vec_hadamard_div () =
  let a = Vec.of_list [ 6.0; 8.0; 1.0 ] and b = Vec.of_list [ 2.0; 4.0; 0.0 ] in
  Alcotest.check vec "div with zero-guard" (Vec.of_list [ 3.0; 2.0; 0.0 ]) (Vec.div a b)

let test_vec_le_fits () =
  let d = Vec.of_list [ 1.0; 2.0 ] and r = Vec.of_list [ 1.0; 3.0 ] in
  Alcotest.(check bool) "fits" true (Vec.fits ~demand:d ~available:r);
  Alcotest.(check bool) "not fits" false (Vec.fits ~demand:r ~available:d)

let test_vec_mutation () =
  let acc = Vec.zero 2 in
  Vec.add_into acc (Vec.of_list [ 1.0; 2.0 ]);
  Vec.add_into acc (Vec.of_list [ 3.0; 1.0 ]);
  Alcotest.check vec "accumulated" (Vec.of_list [ 4.0; 3.0 ]) acc;
  Vec.sub_into acc (Vec.of_list [ 1.0; 1.0 ]);
  Alcotest.check vec "subtracted" (Vec.of_list [ 3.0; 2.0 ]) acc

let test_vec_summary () =
  let v = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  check_float "avg" 2.0 (Vec.avg v);
  check_float "dot" 14.0 (Vec.dot v v);
  Alcotest.(check bool) "not zero" false (Vec.is_zero v);
  Alcotest.(check bool) "zero" true (Vec.is_zero (Vec.zero 3))

let test_vec_dim_mismatch () =
  let a = Vec.of_list [ 1.0 ] and b = Vec.of_list [ 1.0; 2.0 ] in
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (1 vs 2)") (fun () ->
      ignore (Vec.add a b))

let test_vec_clamp () =
  Alcotest.check vec "clamp" (Vec.of_list [ 0.0; 2.0 ])
    (Vec.clamp_nonneg (Vec.of_list [ -1.0; 2.0 ]))

let prop_vec_add_commutes =
  let gen = QCheck.(list_of_size (QCheck.Gen.return 4) (float_range (-1000.) 1000.)) in
  QCheck.Test.make ~name:"vec add commutes" ~count:200 (QCheck.pair gen gen)
    (fun (xs, ys) ->
      let a = Prelude.Vec.of_list xs and b = Prelude.Vec.of_list ys in
      Prelude.Vec.equal (Prelude.Vec.add a b) (Prelude.Vec.add b a))

(* ------------------------------------------------------------------ *)
(* Cost_sort                                                          *)
(* ------------------------------------------------------------------ *)

type tagged = { t_cost : int; t_index : int }

(* The permutation [Array.sort] makes of index-tagged records compared
   by cost alone, and the one [Cost_sort.sort] makes of the packed
   entries: the indices in sorted order. *)
let reference_order costs =
  let arr = Array.mapi (fun i c -> { t_cost = c; t_index = i }) costs in
  Array.sort (fun a b -> Int.compare a.t_cost b.t_cost) arr;
  Array.map (fun r -> r.t_index) arr

let cost_sort_order costs =
  let n = Array.length costs in
  (* Room past [n] that the sort must not touch. *)
  let a = Array.make (n + 3) (-1) in
  Array.iteri (fun i c -> a.(i) <- Cost_sort.pack ~cost:c ~index:i) costs;
  Cost_sort.sort a n;
  Alcotest.(check (array int)) "tail untouched" [| -1; -1; -1 |] (Array.sub a n 3);
  Array.map Cost_sort.index (Array.sub a 0 n)

let test_cost_sort_equal_keys () =
  List.iter
    (fun n ->
      let costs = Array.make n 7 in
      Alcotest.(check (array int))
        (Printf.sprintf "%d equal keys" n)
        (reference_order costs) (cost_sort_order costs))
    [ 0; 1; 2; 3; 4; 338; 845 ]

let test_cost_sort_bounds () =
  let max_cost = (1 lsl 40) - 1 and max_index = (1 lsl 21) - 1 in
  let x = Cost_sort.pack ~cost:max_cost ~index:max_index in
  Alcotest.(check (pair int int)) "round trip" (max_cost, max_index)
    (Cost_sort.cost x, Cost_sort.index x);
  let raises name f =
    Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "negative cost" (fun () -> Cost_sort.pack ~cost:(-1) ~index:0);
  raises "cost 2^40" (fun () -> Cost_sort.pack ~cost:(1 lsl 40) ~index:0);
  raises "index 2^21" (fun () -> Cost_sort.pack ~cost:0 ~index:(max_index + 1));
  raises "count past the array" (fun () -> Cost_sort.sort [| 0 |] 2)

let test_cost_sort_no_alloc () =
  let rng = Rng.create 4 in
  let a = Array.init 845 (fun i -> Cost_sort.pack ~cost:(Rng.int rng 4) ~index:i) in
  Cost_sort.sort a 845;
  let before = Gc.minor_words () in
  Cost_sort.sort a 845;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words

let prop_cost_sort_matches_array_sort =
  let gen =
    QCheck.Gen.(
      oneofl [ 1; 2; 4; 16; 1000; 1 lsl 40 ] >>= fun range ->
      int_range 0 2000 >>= fun n -> array_repeat n (int_bound (range - 1)))
  in
  let print costs = Printf.sprintf "n=%d" (Array.length costs) in
  QCheck.Test.make ~name:"Cost_sort.sort = Array.sort on tagged records" ~count:300
    (QCheck.make ~print gen)
    (fun costs -> reference_order costs = cost_sort_order costs)

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

(* Nine varint bytes whose 63 payload bits are all set: -1 as raw bits,
   a value [Enc.uint] never writes (but [Enc.int min_int] does, which
   test_journal's codec round-trip covers). *)
let all_ones_varint = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

let fails_closed decode =
  match decode (Codec.Dec.of_string all_ones_varint) with
  | exception Codec.Error _ -> true
  | _ -> false

let test_codec_uint_out_of_range () =
  Alcotest.(check bool) "uint" true (fails_closed Codec.Dec.uint);
  Alcotest.(check bool) "string length" true (fails_closed Codec.Dec.string);
  Alcotest.(check bool) "array length" true
    (fails_closed (fun d -> Codec.Dec.array d Codec.Dec.byte));
  Alcotest.(check bool) "list length" true
    (fails_closed (fun d -> Codec.Dec.list d Codec.Dec.byte))

(* A varint padded with a zero group decodes to the same value as the
   encoder's shorter form, so the decoder rejects it: each value has one
   encoding.  A lone 0x00 is the encoding of 0 and stays legal. *)
let test_codec_overlong_varint () =
  let decodes s f =
    match f (Codec.Dec.of_string s) with exception Codec.Error _ -> false | _ -> true
  in
  Alcotest.(check bool) "0 as one byte" true (decodes "\x00" Codec.Dec.uint);
  Alcotest.(check bool) "0 padded" false (decodes "\x80\x00" Codec.Dec.uint);
  Alcotest.(check bool) "1 padded" false (decodes "\x81\x00" Codec.Dec.uint);
  Alcotest.(check bool) "128 as two bytes" true (decodes "\x80\x01" Codec.Dec.uint);
  Alcotest.(check bool) "128 padded" false (decodes "\x80\x81\x00" Codec.Dec.uint);
  Alcotest.(check bool) "zigzag int padded" false (decodes "\x82\x00" Codec.Dec.int);
  Alcotest.(check bool) "string length padded" false (decodes "\x81\x00x" Codec.Dec.string)

let prop_codec_varint_canonical =
  QCheck.Test.make ~name:"codec: a varint decodes only from its own encoding" ~count:300
    QCheck.(pair int (int_range 1 8))
    (fun (v, pad) ->
      let e = Codec.Enc.create () in
      Codec.Enc.int e v;
      let s = Codec.Enc.to_string e in
      (* [s] with [pad] zero groups appended: same value, longer bytes. *)
      let last = String.length s - 1 in
      let padded =
        String.sub s 0 last
        ^ String.make 1 (Char.chr (Char.code s.[last] lor 0x80))
        ^ String.make (pad - 1) '\x80'
        ^ "\x00"
      in
      let d = Codec.Dec.of_string s in
      Codec.Dec.int d = v
      && Codec.Dec.at_end d
      && match Codec.Dec.int (Codec.Dec.of_string padded) with
         | exception Codec.Error _ -> true
         | _ -> false)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "weighted choice" `Quick test_rng_weighted_choice;
          Alcotest.test_case "sampler pinned" `Quick test_rng_sample_pinned;
        ] );
      ( "heap",
        Alcotest.test_case "basic" `Quick test_heap_basic
        :: Alcotest.test_case "empty pop" `Quick test_heap_empty_pop
        :: Alcotest.test_case "clear" `Quick test_heap_clear
        :: Alcotest.test_case "int-pair tie order" `Quick test_int_pair_tie_order
        :: Alcotest.test_case "int-pair range" `Quick test_int_pair_range
        :: qt [ prop_heap_sorts; prop_int_pair_interleaved ] );
      ( "stats",
        Alcotest.test_case "mean" `Quick test_stats_mean
        :: Alcotest.test_case "stddev" `Quick test_stats_stddev
        :: Alcotest.test_case "percentile" `Quick test_stats_percentile
        :: Alcotest.test_case "percentile interpolates" `Quick
             test_stats_percentile_interpolates
        :: Alcotest.test_case "percentile empty" `Quick test_stats_percentile_empty
        :: Alcotest.test_case "cdf points" `Quick test_stats_cdf_points
        :: Alcotest.test_case "ccdf complements" `Quick test_stats_ccdf_complements
        :: Alcotest.test_case "acc" `Quick test_stats_acc
        :: Alcotest.test_case "reservoir small" `Quick test_stats_reservoir_small
        :: Alcotest.test_case "reservoir bounded" `Quick test_stats_reservoir_bounded
        :: qt [ prop_percentile_monotone ] );
      ( "vec",
        Alcotest.test_case "arith" `Quick test_vec_arith
        :: Alcotest.test_case "hadamard div" `Quick test_vec_hadamard_div
        :: Alcotest.test_case "le/fits" `Quick test_vec_le_fits
        :: Alcotest.test_case "mutation" `Quick test_vec_mutation
        :: Alcotest.test_case "summary" `Quick test_vec_summary
        :: Alcotest.test_case "dim mismatch" `Quick test_vec_dim_mismatch
        :: Alcotest.test_case "clamp" `Quick test_vec_clamp
        :: qt [ prop_vec_add_commutes ] );
      ( "cost_sort",
        Alcotest.test_case "equal keys" `Quick test_cost_sort_equal_keys
        :: Alcotest.test_case "pack bounds" `Quick test_cost_sort_bounds
        :: Alcotest.test_case "no allocation" `Quick test_cost_sort_no_alloc
        :: qt [ prop_cost_sort_matches_array_sort ] );
      ( "codec",
        [
          Alcotest.test_case "uint out of range" `Quick test_codec_uint_out_of_range;
          Alcotest.test_case "overlong varint" `Quick test_codec_overlong_varint;
        ]
        @ qt [ prop_codec_varint_canonical ] );
    ]
