(* One benchmark for the HIRE reproduction (bench/perf/README.md).

     perf.exe --workload W --seed N --seconds S --trace 0|1
     perf.exe compare A.json B.json
     perf.exe digests

   A run prints every metric of its section by name, then, as its last
   line, one JSON object: correct, attempted, failed, metrics.  The same
   result with run metadata is written to results/perf/.  [--trace 1]
   measures the untraced run first, then the same work traced, and
   reports the per-layer section. *)

open Perf_bench

let result_dir = "results/perf"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* The untraced run; with [trace], the same work again with Obs and the
   span recorder on.  [f] gets the untraced run when it makes the traced
   one. *)
let measure ~trace f =
  let base = f None in
  if not trace then (base, None)
  else begin
    Obs.Registry.reset ();
    Obs.set_enabled true;
    Spans.enable ();
    let traced = f (Some base) in
    Spans.disable ();
    Obs.set_enabled false;
    (base, Some traced)
  end

(* The end-to-end section of [base], or the per-layer section of the
   traced run (which prints its phase tree), with the sample counts. *)
let section ~base traced ~end_to_end ~per_layer =
  match traced with
  | None -> end_to_end base
  | Some t ->
      let values = per_layer t ~base in
      Spans.print_tree stdout;
      (values, snd (end_to_end t))

(* The faithfulness checks and the set-up probes count toward the
   untraced run's [seconds]; the traced run repeats its first pass. *)
let sim_result (w : Sim_bench.t) ~seed ~seconds ~trace =
  let deadline = Prelude.Clock.now () +. float_of_int seconds in
  let checks = List.filter_map (fun scheduler -> World.unfaithful ~scheduler ~seed) w.schedulers in
  let base, traced =
    measure ~trace (function
      | None -> Sim_bench.run w ~seed (`Until deadline)
      | Some _ -> Sim_bench.run w ~seed (`Passes 1))
  in
  let values, samples =
    section ~base traced ~end_to_end:Sim_bench.end_to_end ~per_layer:Sim_bench.per_layer
  in
  let runs = base :: Option.to_list traced in
  let failures = checks @ List.concat_map (Sim_bench.failures w ~seed) runs in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) failures;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  {
    Result.workload = w.name;
    seed;
    seconds;
    trace;
    correct = failures = [];
    attempted = List.length w.schedulers + sum (fun r -> List.length r.Sim_bench.cells);
    failed = List.length failures;
    values;
    samples;
    measured_s = List.fold_left (fun s r -> s +. r.Sim_bench.measured_s) 0.0 runs;
    host_factor = Calibration.factor base.Sim_bench.calibration;
  }

let serve_result ~seed ~seconds ~trace =
  let root = Printf.sprintf "%s/serve-%d" result_dir (Unix.getpid ()) in
  let base, traced =
    measure ~trace (fun b ->
        let traced = b <> None in
        Serve_bench.run ~seed ~seconds:(float_of_int seconds) ~traced ~ladder:(trace && not traced)
          ~root)
  in
  let values, samples =
    section ~base traced ~end_to_end:Serve_bench.end_to_end ~per_layer:Serve_bench.per_layer
  in
  Printf.printf "  operating point %s\n" (Serve_bench.describe Serve_bench.operating_rate base.op);
  List.iter
    (fun (rate, p) ->
      Printf.printf "  ladder %s  %s\n" (Serve_bench.describe rate p)
        (if Serve_bench.passes p then "meets the limit" else "misses the limit"))
    base.rungs;
  let runs = base :: Option.to_list traced in
  let failures = List.concat_map Serve_bench.failures runs in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) failures;
  let phases (r : Serve_bench.run) = r.op :: r.segments in
  let sum f =
    List.fold_left (fun n r -> List.fold_left (fun n p -> n + f p) n (phases r)) 0 runs
  in
  {
    Result.workload = "serve";
    seed;
    seconds;
    trace;
    correct = failures = [];
    attempted = sum (fun p -> p.Serve_bench.sent);
    failed =
      sum (fun p -> p.Serve_bench.errors + p.unanswered)
      + List.fold_left (fun n r -> n + r.Serve_bench.lost) 0 runs;
    values;
    samples;
    measured_s = List.fold_left (fun s r -> s +. r.Serve_bench.measured_s) 0.0 runs;
    host_factor = Calibration.factor base.Serve_bench.calibration;
  }

let run_workload workload ~seed ~seconds ~trace =
  mkdir_p result_dir;
  let r =
    match List.find_opt (fun (w : Sim_bench.t) -> w.name = workload) Sim_bench.workloads with
    | Some w -> sim_result w ~seed ~seconds ~trace
    | None when workload = "serve" -> serve_result ~seed ~seconds ~trace
    | None -> fail "unknown workload %S" workload
  in
  let stem = Printf.sprintf "%s/%s-%d-%d" result_dir workload seed (if trace then 1 else 0) in
  if trace then begin
    Spans.write_jsonl (stem ^ "-spans.jsonl");
    if Spans.dropped () > 0 then
      Printf.printf "spans: %d records past the first %d were not kept\n" (Spans.dropped ())
        Spans.max_records
  end;
  Out_channel.with_open_bin (stem ^ ".json") (fun oc -> output_string oc (Result.file_line r ^ "\n"));
  Result.print_human stdout r;
  print_endline (Result.summary_line r);
  if not r.correct then exit 1

let digests () =
  List.iter
    (fun (w : Sim_bench.t) ->
      let r = Sim_bench.run w ~seed:1 (`Passes 1) in
      List.iter
        (fun (c : Sim_bench.cell_result) ->
          Printf.printf "%s %d %s %s\n" w.name c.unit c.scheduler c.digest)
        r.Sim_bench.cells)
    Sim_bench.workloads

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "compare"; a; b ] ->
      let worse = Result.compare_files ~benchmark:"BENCHMARK.json" a b in
      exit (if worse > 0 then 1 else 0)
  | [ "digests" ] -> digests ()
  | args ->
      let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
      let spec =
        [
          ("--workload", Arg.Set_string workload, "NAME workload to run");
          ("--seed", Arg.Set_int seed, "N seed of the workload's inputs (default 1)");
          ("--seconds", Arg.Set_int seconds, "S how long the run measures (default 30)");
          ("--trace", Arg.Set_int trace, "0|1 report the per-layer section (default 0)");
        ]
      in
      (try Arg.parse_argv (Array.of_list ("perf" :: args)) spec (fun a -> fail "unexpected %S" a) "perf.exe --workload NAME --seed N --seconds S --trace 0|1"
       with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
      if !workload = "" then fail "--workload is required";
      run_workload !workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
