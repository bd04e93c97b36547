(* Unit and property tests for the prelude library: RNG, heap, stats,
   vectors. *)

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

let test_rng_pareto_scale () =
  let r = Rng.create 11 in
  for _ = 1 to 1_000 do
    let v = Rng.pareto r ~scale:1.5 ~shape:2.0 in
    Alcotest.(check bool) ">= scale" true (v >= 1.5)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 12 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let r = Rng.create 13 in
  let arr = Array.init 20 (fun i -> i) in
  let s = Rng.sample_without_replacement r ~n:8 arr in
  Alcotest.(check int) "size" 8 (List.length s);
  Alcotest.(check int) "distinct" 8 (List.length (List.sort_uniq compare s));
  let s_all = Rng.sample_without_replacement r ~n:100 arr in
  Alcotest.(check int) "clamped to population" 20 (List.length s_all)

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
  Alcotest.(check int) "peek" 1 (Heap.peek h);
  let out = List.init 5 (fun _ -> Heap.pop h) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] out;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_empty_pop () =
  let h : int Heap.t = Heap.create ~cmp:compare in
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Heap.pop h));
  Alcotest.check_raises "peek empty" Not_found (fun () -> ignore (Heap.peek h))

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
  Alcotest.(check bool) "le" true (Vec.le d r);
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
  check_float "max" 3.0 (Vec.max_coord v);
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
  let max_cost = (1 lsl 40) - 1 and max_index = (1 lsl Cost_sort.index_bits) - 1 in
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
          Alcotest.test_case "pareto scale" `Quick test_rng_pareto_scale;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "weighted choice" `Quick test_rng_weighted_choice;
        ] );
      ( "heap",
        Alcotest.test_case "basic" `Quick test_heap_basic
        :: Alcotest.test_case "empty pop" `Quick test_heap_empty_pop
        :: Alcotest.test_case "clear" `Quick test_heap_clear
        :: qt [ prop_heap_sorts ] );
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
    ]
