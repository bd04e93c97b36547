(* Tests for the benchmark itself: its copy of [Experiment.prepare] must
   build the very cell [Experiment.run] simulates (any drift in the RNG
   split order fails here), a closed-loop cell must feed every job, and
   the metric set must be the one BENCHMARK.json declares. *)

open Perf_bench

let test_faithful scheduler () =
  List.iter
    (fun seed ->
      let spec = World.tiny ~scheduler ~seed in
      let expected = Harness.Experiment.run spec in
      let cell = World.run_cell (World.probe ()) spec in
      Alcotest.(check bool) "the cell has work" true (expected.Sim.Metrics.jobs_total > 0);
      Alcotest.(check string)
        (Printf.sprintf "seed %d digest" seed)
        (World.digest expected) (World.digest cell.World.report);
      Alcotest.(check bool) "ledgers agree" true (cell.World.ledger = Ok ()))
    [ 1; 2 ]

let test_closed_loop_feeds_every_job () =
  let w = { (List.hd Sim_bench.workloads) with jobs = 30; in_flight = 5 } in
  let probe = World.probe () in
  let spec = Sim_bench.spec w ~scheduler:"hire" ~seed:7 in
  let cell = World.run_cell ~closed:(Sim_bench.closed w ~unit:0) probe spec in
  Alcotest.(check int) "jobs entered" 30 cell.World.report.Sim.Metrics.jobs_total;
  Alcotest.(check bool) "ledgers agree" true (cell.World.ledger = Ok ());
  let again = World.run_cell ~closed:(Sim_bench.closed w ~unit:0) probe spec in
  Alcotest.(check string) "deterministic" (World.digest cell.World.report)
    (World.digest again.World.report)

(* Names and units of a BENCHMARK.json section. *)
let declared section =
  let json = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  match Server.Json.parse json with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Option.value ~default:[] (Option.bind (Server.Json.member section v) Server.Json.to_list)
      |> List.map (fun m ->
             let s k = Option.value ~default:"" (Option.bind (Server.Json.member k m) Server.Json.to_str) in
             (s "name", s "unit"))

let test_metric_sets () =
  let ours defs = List.map (fun (d : Result.def) -> (d.name, d.unit)) defs in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end_to_end" (declared "end_to_end") (ours Result.end_to_end);
  Alcotest.check pair "per_layer" (declared "per_layer") (ours Result.per_layer)

let test_quartiles_match_python () =
  (* statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) *)
  let q1, q2, q3 = Samples.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ]

let () =
  Alcotest.run "perf"
    [
      ( "world",
        List.map
          (fun s ->
            Alcotest.test_case ("matches Experiment.run: " ^ s) `Quick (test_faithful s))
          [ "hire"; "yarn-concurrent"; "k8-concurrent"; "sparrow-concurrent" ]
        @ [ Alcotest.test_case "closed loop feeds every job" `Quick test_closed_loop_feeds_every_job ]
      );
      ( "result",
        [
          Alcotest.test_case "metric sets match BENCHMARK.json" `Quick test_metric_sets;
          Alcotest.test_case "quartiles match Python's" `Quick test_quartiles_match_python;
        ] );
    ]
