(* Tests for the synthetic trace generator: determinism, distributional
   shape, rate calibration, and the job model. *)

module Job = Workload.Job
module Trace_gen = Workload.Trace_gen
module Rng = Prelude.Rng

let gen ?(seed = 7) ?(horizon = 2000.0) ?(config = Trace_gen.default) () =
  Trace_gen.generate config (Rng.create seed) ~horizon

(* ------------------------------------------------------------------ *)
(* Job model                                                          *)
(* ------------------------------------------------------------------ *)

let test_job_totals () =
  let job =
    {
      Job.id = 1;
      arrival = 0.0;
      priority = Job.Batch;
      groups =
        [
          { Job.tg_index = 0; count = 3; cpu = 2.0; mem = 4.0; duration = 10.0 };
          { Job.tg_index = 1; count = 2; cpu = 1.0; mem = 2.0; duration = 5.0 };
        ];
    }
  in
  Alcotest.(check int) "total tasks" 5 (Job.total_tasks job);
  Alcotest.(check (float 1e-9)) "cpu seconds" ((3. *. 2. *. 10.) +. (2. *. 1. *. 5.))
    (Job.cpu_seconds job)

(* ------------------------------------------------------------------ *)
(* Generator                                                          *)
(* ------------------------------------------------------------------ *)

let test_deterministic () =
  let a = gen () and b = gen () in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun (x : Job.t) (y : Job.t) ->
      Alcotest.(check (float 1e-12)) "same arrival" x.arrival y.arrival;
      Alcotest.(check int) "same tasks" (Job.total_tasks x) (Job.total_tasks y))
    a b

let test_seeds_differ () =
  let a = gen ~seed:1 () and b = gen ~seed:2 () in
  Alcotest.(check bool) "different" true
    (List.map (fun (j : Job.t) -> j.arrival) a <> List.map (fun (j : Job.t) -> j.arrival) b)

let test_arrivals_sorted_and_bounded () =
  let jobs = gen () in
  let rec check prev = function
    | [] -> ()
    | (j : Job.t) :: rest ->
        Alcotest.(check bool) "sorted" true (j.arrival >= prev);
        Alcotest.(check bool) "within horizon" true (j.arrival < 2000.0);
        check j.arrival rest
  in
  check 0.0 jobs

let test_ids_dense () =
  let jobs = gen () in
  List.iteri (fun i (j : Job.t) -> Alcotest.(check int) "dense id" i j.id) jobs

let test_rate_roughly_matches () =
  let config = { Trace_gen.default with arrival_rate = 0.5; diurnal_amplitude = 0.0 } in
  let jobs = gen ~config ~horizon:4000.0 () in
  let rate = float_of_int (List.length jobs) /. 4000.0 in
  Alcotest.(check bool) "rate near 0.5" true (rate > 0.4 && rate < 0.6)

let test_priorities_mixed () =
  let jobs = gen ~horizon:4000.0 () in
  let batch = List.length (List.filter (fun (j : Job.t) -> j.priority = Job.Batch) jobs) in
  let frac = float_of_int batch /. float_of_int (List.length jobs) in
  Alcotest.(check bool) "batch fraction near 0.85" true (frac > 0.75 && frac < 0.95)

let test_group_shapes () =
  let jobs = gen () in
  List.iter
    (fun (j : Job.t) ->
      Alcotest.(check bool) "1..5 groups" true
        (List.length j.groups >= 1 && List.length j.groups <= 5);
      List.iter
        (fun (g : Job.task_group) ->
          Alcotest.(check bool) "count >= 1" true (g.count >= 1);
          Alcotest.(check bool) "count bounded" true (g.count <= 120);
          Alcotest.(check bool) "positive demands" true (g.cpu > 0.0 && g.mem > 0.0);
          Alcotest.(check bool) "duration >= 1" true (g.duration >= 1.0))
        j.groups)
    jobs

let test_batch_heavier_than_service () =
  let jobs = gen ~horizon:8000.0 () in
  let avg p =
    let sel = List.filter (fun (j : Job.t) -> j.priority = p) jobs in
    if sel = [] then 0.0
    else
      List.fold_left (fun acc j -> acc +. float_of_int (Job.total_tasks j)) 0.0 sel
      /. float_of_int (List.length sel)
  in
  Alcotest.(check bool) "batch jobs have more tasks" true (avg Job.Batch > avg Job.Service)

let test_service_longer_durations () =
  let jobs = gen ~horizon:8000.0 () in
  let avg_dur p =
    let ds =
      List.concat_map
        (fun (j : Job.t) ->
          if j.priority = p then List.map (fun (g : Job.task_group) -> g.duration) j.groups
          else [])
        jobs
    in
    Prelude.Stats.mean ds
  in
  Alcotest.(check bool) "service runs longer" true
    (avg_dur Job.Service > avg_dur Job.Batch)

let test_scaled_rate () =
  let config =
    Trace_gen.scaled_rate ~n_servers:128 ~target_utilization:0.5 Trace_gen.default
  in
  Alcotest.(check bool) "positive rate" true (config.Trace_gen.arrival_rate > 0.0);
  (* Generated offered load should be within a factor ~2 of the target
     (heavy-tailed job sizes make this noisy). *)
  let horizon = 20_000.0 in
  let jobs = Trace_gen.generate config (Rng.create 3) ~horizon in
  let offered =
    List.fold_left (fun acc j -> acc +. Job.cpu_seconds j) 0.0 jobs
    /. (horizon *. 128.0 *. 96.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "offered load %.3f near 0.5" offered)
    true
    (offered > 0.25 && offered < 1.0)

let test_scaled_rate_rejects_bad_args () =
  Alcotest.(check bool) "bad n_servers" true
    (try
       ignore (Trace_gen.scaled_rate ~n_servers:0 ~target_utilization:0.5 Trace_gen.default);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Trace CSV round-trip                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_io_roundtrip () =
  let jobs = gen ~horizon:500.0 () in
  let csv = Workload.Trace_io.to_csv jobs in
  match Workload.Trace_io.of_csv csv with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      Alcotest.(check int) "same job count" (List.length jobs) (List.length parsed);
      List.iter2
        (fun (a : Job.t) (b : Job.t) ->
          Alcotest.(check int) "id" a.id b.id;
          Alcotest.(check bool) "priority" true (a.priority = b.priority);
          Alcotest.(check int) "groups" (List.length a.groups) (List.length b.groups);
          Alcotest.(check (float 1e-6)) "arrival" a.arrival b.arrival;
          List.iter2
            (fun (g : Job.task_group) (h : Job.task_group) ->
              Alcotest.(check int) "count" g.count h.count;
              Alcotest.(check (float 1e-6)) "cpu" g.cpu h.cpu;
              Alcotest.(check (float 1e-6)) "duration" g.duration h.duration)
            a.groups b.groups)
        jobs parsed

let test_trace_io_rejects_garbage () =
  let bad header_ok body =
    let text =
      (if header_ok then "job_id,arrival_s,priority,tg_index,count,cpu,mem,duration_s"
       else "nope")
      ^ "\n" ^ body
    in
    Result.is_error (Workload.Trace_io.of_csv text)
  in
  Alcotest.(check bool) "bad header" true (bad false "1,0.0,batch,0,1,1.0,1.0,1.0");
  Alcotest.(check bool) "short row" true (bad true "1,0.0,batch,0,1");
  Alcotest.(check bool) "bad number" true (bad true "1,xx,batch,0,1,1.0,1.0,1.0");
  Alcotest.(check bool) "bad priority" true (bad true "1,0.0,urgent,0,1,1.0,1.0,1.0");
  Alcotest.(check bool) "negative count" true (bad true "1,0.0,batch,0,0,1.0,1.0,1.0");
  Alcotest.(check bool) "inconsistent job" true
    (bad true "1,0.0,batch,0,1,1.0,1.0,1.0\n1,5.0,batch,1,1,1.0,1.0,1.0");
  Alcotest.(check bool) "empty" true (Result.is_error (Workload.Trace_io.of_csv ""))

(* ------------------------------------------------------------------ *)
(* Trace CSV property coverage (QCheck)                               *)
(* ------------------------------------------------------------------ *)

(* [to_csv] prints floats with [%.6f], so exact round-trips need values
   on a binary-fraction grid that six decimals render exactly: eighths
   and quarters.  The generator also produces dense ids with
   non-decreasing arrivals, matching the order [of_csv] normalises to —
   within that (fully representative) class, round-trip equality is
   exact structural equality. *)
let gen_jobs : Job.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let grid step lo hi = map (fun n -> float_of_int n *. step) (int_range lo hi) in
  let gen_group tg_index =
    map
      (fun (count, cpu, mem, duration) -> { Job.tg_index; count; cpu; mem; duration })
      (quad (int_range 1 20) (grid 0.25 1 40) (grid 0.25 1 40) (grid 0.5 2 120))
  in
  let gen_proto =
    let* priority = oneofl [ Job.Batch; Job.Service ] in
    let* n_groups = int_range 1 4 in
    let* groups =
      flatten_l (List.init n_groups (fun i -> gen_group i))
    in
    let* delta = grid 0.125 0 64 in
    return (priority, groups, delta)
  in
  let* n = int_range 1 8 in
  let* protos = flatten_l (List.init n (fun _ -> gen_proto)) in
  let _, jobs =
    List.fold_left
      (fun (arrival, acc) (priority, groups, delta) ->
        let arrival = arrival +. delta in
        let id = List.length acc in
        (arrival, { Job.id; arrival; priority; groups } :: acc))
      (0.0, []) protos
  in
  return (List.rev jobs)

let arbitrary_jobs =
  QCheck.make gen_jobs ~print:(fun jobs -> Workload.Trace_io.to_csv jobs)

let prop_trace_io_roundtrip =
  QCheck.Test.make ~name:"of_csv (to_csv jobs) = Ok jobs" ~count:200 arbitrary_jobs
    (fun jobs -> Workload.Trace_io.of_csv (Workload.Trace_io.to_csv jobs) = Ok jobs)

(* Mangling any single data row must turn the whole parse into a
   descriptive error, never a silently different trace. *)
let prop_trace_io_malformed_row =
  QCheck.Test.make ~name:"malformed rows are rejected" ~count:200
    QCheck.(pair arbitrary_jobs (int_range 0 1_000_000))
    (fun (jobs, choice) ->
      let csv = Workload.Trace_io.to_csv jobs in
      match String.split_on_char '\n' csv |> List.filter (fun l -> String.trim l <> "") with
      | header :: (_ :: _ as rows) ->
          let victim = choice mod List.length rows in
          let mangle =
            match choice / List.length rows mod 4 with
            | 0 -> fun row -> String.sub row 0 (String.rindex row ',') (* drop a field *)
            | 1 -> fun row -> row ^ ",9"                     (* extra field *)
            | 2 -> fun row -> "x" ^ row                      (* unparsable job id *)
            | _ -> fun _ -> "1,-1.0,batch,0,1,1.0,1.0,1.0"   (* negative arrival *)
          in
          let rows = List.mapi (fun i r -> if i = victim then mangle r else r) rows in
          Result.is_error (Workload.Trace_io.of_csv (String.concat "\n" (header :: rows)))
      | _ -> false)

let test_trace_io_file_roundtrip () =
  let jobs = gen ~horizon:200.0 () in
  let path = Filename.temp_file "hire_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Trace_io.write_file path jobs;
      match Workload.Trace_io.read_file path with
      | Ok parsed -> Alcotest.(check int) "count" (List.length jobs) (List.length parsed)
      | Error e -> Alcotest.fail e)

let () =
  Alcotest.run "workload"
    [
      ("job", [ Alcotest.test_case "totals" `Quick test_job_totals ]);
      ( "trace_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_trace_io_rejects_garbage;
          Alcotest.test_case "file roundtrip" `Quick test_trace_io_file_roundtrip;
          QCheck_alcotest.to_alcotest prop_trace_io_roundtrip;
          QCheck_alcotest.to_alcotest prop_trace_io_malformed_row;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "sorted/bounded arrivals" `Quick test_arrivals_sorted_and_bounded;
          Alcotest.test_case "dense ids" `Quick test_ids_dense;
          Alcotest.test_case "rate" `Slow test_rate_roughly_matches;
          Alcotest.test_case "priorities" `Slow test_priorities_mixed;
          Alcotest.test_case "group shapes" `Quick test_group_shapes;
          Alcotest.test_case "batch heavier" `Slow test_batch_heavier_than_service;
          Alcotest.test_case "service longer" `Slow test_service_longer_durations;
          Alcotest.test_case "scaled rate" `Slow test_scaled_rate;
          Alcotest.test_case "scaled rate args" `Quick test_scaled_rate_rejects_bad_args;
        ] );
    ]
