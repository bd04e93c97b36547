(* Tests of the observability layer: histogram quantiles, ring-buffer
   wraparound, the zero-cost disabled mode, JSONL round-trips, and the
   agreement between Sim.Metrics' solver histogram and the tracer's
   solver_profile records. *)

let reset_obs () =
  Obs.set_enabled false;
  Obs.Trace.close_jsonl ();
  Obs.Trace.clear ();
  Obs.Trace.set_sim_time 0.0;
  Obs.Registry.reset ()

let counter_value name =
  Option.value (List.assoc_opt name (Obs.Registry.counters ())) ~default:0

(* ------------------------------------------------------------------ *)
(* Histogram                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_exact_stats () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) [ 0.004; 0.002; 0.01; 0.001; 0.003 ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-12)) "sum" 0.02 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-12)) "mean" 0.004 (Obs.Histogram.mean h);
  Alcotest.(check (float 1e-12)) "p0 is the exact min" 0.001 (Obs.Histogram.quantile h 0.0);
  Alcotest.(check (float 1e-12)) "max" 0.01 (Obs.Histogram.max_value h)

let test_histogram_empty () =
  let h = Obs.Histogram.create () in
  Alcotest.(check int) "count" 0 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Obs.Histogram.mean h);
  Alcotest.(check (float 0.0)) "quantile" 0.0 (Obs.Histogram.quantile h 0.5);
  Alcotest.(check bool) "cdf empty" true (Obs.Histogram.cdf_points ~points:5 h = []);
  Obs.Histogram.observe h Float.nan;
  Alcotest.(check int) "NaN ignored" 0 (Obs.Histogram.count h)

(* Quantiles on a log-uniform sample (1 ms .. 10 s) must land within the
   bucket resolution (about 5.9% at 20 buckets/decade; 8% leaves margin
   for the discrete sample). *)
let test_histogram_quantiles () =
  let n = 10_000 in
  let h = Obs.Histogram.create () in
  let samples =
    List.init n (fun i ->
        let u = float_of_int i /. float_of_int (n - 1) in
        0.001 *. (10.0 ** (4.0 *. u)))
  in
  List.iter (Obs.Histogram.observe h) samples;
  let sorted = List.sort compare samples in
  let exact q = List.nth sorted (min (n - 1) (int_of_float (q *. float_of_int n))) in
  List.iter
    (fun q ->
      let est = Obs.Histogram.quantile h q in
      let ref_ = exact q in
      let rel = abs_float (est -. ref_) /. ref_ in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within 8%% (est %g ref %g)" (100.0 *. q) est ref_)
        true (rel < 0.08))
    [ 0.10; 0.50; 0.90; 0.95; 0.99 ];
  (* Extremes are exact. *)
  Alcotest.(check (float 1e-9)) "p0 = min" (List.fold_left Float.min infinity samples)
    (Obs.Histogram.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" (Obs.Histogram.max_value h)
    (Obs.Histogram.quantile h 1.0)

let test_histogram_out_of_range () =
  let h = Obs.Histogram.create ~lo:1e-6 ~decades:3 ~buckets_per_decade:10 () in
  (* Below lo (underflow) and far above the covered range (overflow). *)
  Obs.Histogram.observe h 0.0;
  Obs.Histogram.observe h 1e-9;
  Obs.Histogram.observe h 50.0;
  Alcotest.(check int) "count" 3 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-12)) "max exact" 50.0 (Obs.Histogram.max_value h);
  Alcotest.(check (float 1e-12)) "low quantile clamps to min" 0.0 (Obs.Histogram.quantile h 0.0);
  Alcotest.(check (float 1e-12)) "high quantile clamps to max" 50.0
    (Obs.Histogram.quantile h 1.0)

let test_histogram_merge () =
  let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
  let all = Obs.Histogram.create () in
  List.iteri
    (fun i v ->
      Obs.Histogram.observe (if i mod 2 = 0 then a else b) v;
      Obs.Histogram.observe all v)
    (List.init 1000 (fun i -> 0.001 *. float_of_int (i + 1)));
  let m = Obs.Histogram.merged [ a; b ] in
  Alcotest.(check int) "count" (Obs.Histogram.count all) (Obs.Histogram.count m);
  Alcotest.(check (float 1e-9)) "sum" (Obs.Histogram.sum all) (Obs.Histogram.sum m);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q=%g equals unsplit histogram" q)
        (Obs.Histogram.quantile all q) (Obs.Histogram.quantile m q))
    [ 0.1; 0.5; 0.9; 0.99 ];
  (* Merging must not alias the source's buckets. *)
  Obs.Histogram.observe a 1.0;
  Alcotest.(check int) "merged unaffected by later observes" 1000 (Obs.Histogram.count m);
  let other = Obs.Histogram.create ~buckets_per_decade:5 () in
  Alcotest.check_raises "layout mismatch rejected"
    (Invalid_argument "Histogram.merge_into: layouts differ") (fun () ->
      Obs.Histogram.merge_into a other)

(* ------------------------------------------------------------------ *)
(* Tracer                                                             *)
(* ------------------------------------------------------------------ *)

let test_ring_wraparound () =
  reset_obs ();
  Obs.Trace.set_capacity 8;
  Obs.set_enabled true;
  for i = 1 to 20 do
    if Obs.enabled () then Obs.Trace.emit "tick" [ ("i", Obs.Trace.Int i) ]
  done;
  let rs = Obs.Trace.records () in
  Alcotest.(check int) "only capacity retained" 8 (List.length rs);
  Alcotest.(check (list int))
    "newest 8 survive, in order"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map
       (fun r ->
         match Obs.Trace.field r "i" with Some (Obs.Trace.Int i) -> i | _ -> -1)
       rs);
  Alcotest.(check int) "seq keeps counting" 20 (List.nth rs 7).Obs.Trace.seq;
  reset_obs ();
  Obs.Trace.set_capacity 65536

let test_disabled_is_noop () =
  reset_obs ();
  let big = String.make 64 'x' in
  let emit_guarded i =
    if Obs.enabled () then begin
      Obs.Trace.emit "hot_path"
        [ ("i", Obs.Trace.Int i); ("payload", Obs.Trace.Str (big ^ string_of_int i)) ];
      Obs.Registry.incr (Obs.Registry.counter "test.noop")
    end
  in
  (* Warm up so the closure itself is not counted. *)
  emit_guarded 0;
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    emit_guarded i
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "no allocation with tracing disabled" 0.0 (after -. before);
  Alcotest.(check int) "no records" 0 (Obs.Trace.length ());
  Alcotest.(check bool) "no counters touched" true (Obs.Registry.counters () = [])

let test_registry () =
  reset_obs ();
  let c = Obs.Registry.counter "a.count" in
  Obs.Registry.incr c;
  Obs.Registry.incr ~by:4 c;
  Alcotest.(check (option int)) "counter" (Some 5)
    (List.assoc_opt "a.count" (Obs.Registry.counters ()));
  Alcotest.(check bool) "same instance by name" true (c == Obs.Registry.counter "a.count");
  let g = Obs.Registry.gauge "a.depth" in
  Obs.Registry.set g 3.5;
  Alcotest.(check (option (float 0.0))) "gauge" (Some 3.5)
    (List.assoc_opt "a.depth" (Obs.Registry.gauges ()));
  Obs.Histogram.observe (Obs.Registry.histogram "a.hist") 0.25;
  Alcotest.(check int) "histogram registered" 1
    (Obs.Histogram.count (Obs.Registry.histogram "a.hist"));
  Alcotest.(check (list (pair string int))) "counters listing" [ ("a.count", 5) ]
    (Obs.Registry.counters ());
  Obs.Registry.reset ();
  Alcotest.(check int) "reset drops state" 0
    (Obs.Histogram.count (Obs.Registry.histogram "a.hist"))

(* ------------------------------------------------------------------ *)
(* JSONL                                                              *)
(* ------------------------------------------------------------------ *)

(* Trace lines are read back with the project's JSON parser,
   Server.Json, which holds every number as a float: a record's line
   must parse to exactly the object its fields spell. *)
let json = Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Server.Json.to_string j)) ( = )

let json_of_record (r : Obs.Trace.record) =
  let value = function
    | Obs.Trace.Int n -> Server.Json.Num (float_of_int n)
    | Obs.Trace.Float f -> Server.Json.Num f
    | Obs.Trace.Str s -> Server.Json.Str s
    | Obs.Trace.Bool b -> Server.Json.Bool b
  in
  let level = match r.level with Debug -> "debug" | Info -> "info" | Warn -> "warn" in
  Server.Json.Obj
    [
      ("seq", Num (float_of_int r.seq));
      ("t_sim", Num r.t_sim);
      ("t_wall", Num r.t_wall);
      ("level", Str level);
      ("event", Str r.name);
      ("fields", Obj (List.map (fun (k, v) -> (k, value v)) r.fields));
    ]

let parse_line line =
  match Server.Json.parse line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "trace line %S does not parse: %s" line msg

let test_json_roundtrip () =
  let r =
    {
      Obs.Trace.seq = 42;
      t_sim = 12.25;
      t_wall = 1690000000.125;
      level = Obs.Trace.Warn;
      name = "odd \"event\"\nname";
      fields =
        [
          ("n", Obs.Trace.Int (-7));
          ("x", Obs.Trace.Float (-0.001));
          ("whole", Obs.Trace.Float 3.0);
          ("big", Obs.Trace.Float 1e17);
          ("s", Obs.Trace.Str "tab\there, quote\" and back\\slash");
          ("flag", Obs.Trace.Bool true);
          ("off", Obs.Trace.Bool false);
        ];
    }
  in
  let line = Obs.Trace.to_json r in
  Alcotest.(check bool) "single line" true (not (String.contains line '\n'));
  Alcotest.check json "round-trips" (json_of_record r) (parse_line line);
  (* The parsed numbers cannot tell Float 3.0 from Int 3; the line can. *)
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length line && (String.sub line i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "integral float keeps a fraction" true (contains {|"whole":3.0,|});
  Alcotest.(check bool) "int has none" true (contains {|"n":-7,|})

let test_jsonl_sink () =
  reset_obs ();
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Obs.set_enabled true;
  Obs.Trace.open_jsonl path;
  Obs.Trace.set_sim_time 1.5;
  if Obs.enabled () then begin
    Obs.Trace.emit "first" [ ("k", Obs.Trace.Str "v") ];
    Obs.Trace.emit ~level:Obs.Trace.Debug "second" []
  end;
  Obs.Trace.close_jsonl ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  let records = Obs.Trace.records () in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  Alcotest.(check (list string)) "event names" [ "first"; "second" ]
    (List.map (fun r -> r.Obs.Trace.name) records);
  List.iter
    (fun r -> Alcotest.(check (float 1e-9)) "sim time stamped" 1.5 r.Obs.Trace.t_sim)
    records;
  (* The sink writes each retained record, every field intact. *)
  Alcotest.(check (list json)) "lines are the records" (List.map json_of_record records)
    (List.map parse_line lines);
  Sys.remove path;
  reset_obs ()

(* ------------------------------------------------------------------ *)
(* Solver profile integration                                         *)
(* ------------------------------------------------------------------ *)

let solve_small_instance () =
  let g = Flow.Graph.create () in
  let s = Flow.Graph.add_node g and m1 = Flow.Graph.add_node g in
  let m2 = Flow.Graph.add_node g and sink = Flow.Graph.add_node g in
  Flow.Graph.set_supply g s 2;
  Flow.Graph.set_supply g sink (-2);
  ignore (Flow.Graph.add_arc g ~src:s ~dst:m1 ~cap:1 ~cost:1);
  ignore (Flow.Graph.add_arc g ~src:s ~dst:m2 ~cap:1 ~cost:3);
  ignore (Flow.Graph.add_arc g ~src:m1 ~dst:sink ~cap:1 ~cost:0);
  ignore (Flow.Graph.add_arc g ~src:m2 ~dst:sink ~cap:1 ~cost:0);
  Flow.Mcmf.solve g

let test_solver_profile_emitted () =
  reset_obs ();
  Obs.set_enabled true;
  let r = solve_small_instance () in
  Alcotest.(check string) "solver name" "ssp" r.Flow.Mcmf.profile.Obs.Solver_profile.solver;
  Alcotest.(check int) "nodes" 4 r.Flow.Mcmf.profile.Obs.Solver_profile.nodes;
  Alcotest.(check int) "arcs" 4 r.Flow.Mcmf.profile.Obs.Solver_profile.arcs;
  Alcotest.(check int) "augmentations in profile" r.Flow.Mcmf.augmentations
    r.Flow.Mcmf.profile.Obs.Solver_profile.augmentations;
  Alcotest.(check bool) "stage timings present" true
    (List.mem_assoc "dijkstra" r.Flow.Mcmf.profile.Obs.Solver_profile.stages);
  let profile_events =
    List.filter (fun e -> e.Obs.Trace.name = "solver_profile") (Obs.Trace.records ())
  in
  Alcotest.(check int) "one solver_profile event" 1 (List.length profile_events);
  Alcotest.(check int) "flow.solves counter" 1
    (counter_value "flow.solves");
  Alcotest.(check int) "flow.solve_s histogram" 1
    (Obs.Histogram.count (Obs.Registry.histogram "flow.solve_s"));
  reset_obs ();
  (* Disabled: profile still attached (sizes etc.) but nothing emitted
     and no stage timings collected. *)
  let r = solve_small_instance () in
  Alcotest.(check bool) "no stages when disabled" true
    (r.Flow.Mcmf.profile.Obs.Solver_profile.stages = []);
  Alcotest.(check int) "no events when disabled" 0 (Obs.Trace.length ())

(* Regression: the solver wall time reported through Metrics.on_solver_sample
   must agree with the wall_s of the solver_profile trace records — the
   adapter feeds r.elapsed_s, the profile carries the same measurement. *)
let test_metrics_profile_agree () =
  reset_obs ();
  Obs.Trace.set_capacity 131072;
  Obs.set_enabled true;
  let spec =
    {
      Harness.Experiment.default with
      scheduler = "hire";
      k = 4;
      horizon = 120.0;
      mu = 0.7;
      target_utilization = 1.5;
    }
  in
  let r = Harness.Experiment.run spec in
  let profile_walls =
    Obs.Trace.records ()
    |> List.filter (fun e -> e.Obs.Trace.name = "solver_profile")
    |> List.map (fun e ->
           match Obs.Trace.field e "wall_s" with
           | Some (Obs.Trace.Float w) -> w
           | _ -> Alcotest.fail "solver_profile without wall_s")
  in
  let h = r.Sim.Metrics.solver_wall in
  Alcotest.(check bool) "solver ran" true (profile_walls <> []);
  Alcotest.(check int) "one profile per metrics sample" (Obs.Histogram.count h)
    (List.length profile_walls);
  let profile_sum = List.fold_left ( +. ) 0.0 profile_walls in
  let diff = abs_float (profile_sum -. Obs.Histogram.sum h) in
  Alcotest.(check bool)
    (Printf.sprintf "wall-time totals agree (profiles %.6fs, metrics %.6fs)" profile_sum
       (Obs.Histogram.sum h))
    true
    (diff <= 1e-9 +. (1e-6 *. profile_sum));
  reset_obs ();
  Obs.Trace.set_capacity 65536

(* Every network build is timed.  [hire.build_s] gets one sample per
   attempt of the fallback chain: one per round with pending work when
   the first rung always accepts (no budget, no guard), and one per rung
   tried when the guard quarantines solutions. *)
let build_and_solve_counts ?resilience () =
  reset_obs ();
  Obs.set_enabled true;
  let spec =
    {
      Harness.Experiment.default with
      scheduler = "hire";
      k = 4;
      horizon = 60.0;
      target_utilization = 2.0;
      resilience;
    }
  in
  let r = Harness.Experiment.run spec in
  let builds = Obs.Histogram.count (Obs.Registry.histogram "hire.build_s") in
  let solves = counter_value "flow.solves" in
  reset_obs ();
  (r, builds, solves)

let test_build_timed_per_attempt () =
  Failpt.deactivate ();
  let r, builds, solves = build_and_solve_counts () in
  let rounds_with_work = Obs.Histogram.count r.Sim.Metrics.solver_wall in
  Alcotest.(check bool) "rounds had work" true (rounds_with_work > 0);
  Alcotest.(check int) "default: one build per round with work" rounds_with_work builds;
  Alcotest.(check int) "default: one build per solve" solves builds;
  Failpt.load "seed=3;flow.corrupt=50%trip";
  Fun.protect ~finally:Failpt.deactivate (fun () ->
      let resilience = Hire.Hire_scheduler.resilience ~guard_every:1 () in
      let r, builds, solves = build_and_solve_counts ~resilience () in
      let rounds_with_work = Obs.Histogram.count r.Sim.Metrics.solver_wall in
      Alcotest.(check bool) "guard tripped" true (r.Sim.Metrics.guard_trips > 0);
      Alcotest.(check int) "guarded: one build per attempt" solves builds;
      Alcotest.(check bool) "guarded: more attempts than rounds with work" true
        (builds > rounds_with_work))

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact stats" `Quick test_histogram_exact_stats;
          Alcotest.test_case "empty and NaN" `Quick test_histogram_empty;
          Alcotest.test_case "quantile accuracy" `Quick test_histogram_quantiles;
          Alcotest.test_case "underflow/overflow" `Quick test_histogram_out_of_range;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "file sink" `Quick test_jsonl_sink;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "solver profile emitted" `Quick test_solver_profile_emitted;
          Alcotest.test_case "metrics agree with profiles" `Quick test_metrics_profile_agree;
          Alcotest.test_case "build timed per attempt" `Quick test_build_timed_per_attempt;
        ] );
    ]
