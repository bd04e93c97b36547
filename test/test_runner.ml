(* Tests for lib/runner: the fork pool (ordering, isolation, timeout,
   retry, structured failures), the on-disk result
   cache (resume, corruption tolerance), and the acceptance properties
   of the sweep runner — parallel output byte-identical to sequential
   and to the in-process reference path, and an interrupted sweep
   resuming from cached cells only. *)

module Runner = Runner
module Pool = Runner.Pool
module Cache = Runner.Cache
module Experiment = Harness.Experiment

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "hire_runner_test_%d_%d" (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Cache.ensure_dir dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let ok_exn = function
  | { Runner.result = Ok v; _ } -> v
  | { Runner.result = Error reason; _ } ->
      Alcotest.failf "unexpected failure: %s" (Pool.reason_to_string reason)

let ok_exn_pool (c : _ Pool.cell) =
  match c.result with
  | Ok v -> v
  | Error reason -> Alcotest.failf "unexpected failure: %s" (Pool.reason_to_string reason)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

(* Sleep jitter scrambles completion order; results must still come back
   in input order, identical for any --jobs. *)
let test_pool_order_deterministic () =
  let items = List.init 12 Fun.id in
  let f x =
    Unix.sleepf (0.002 *. float_of_int ((7 * x) mod 5));
    (x, x * x)
  in
  let run jobs =
    Pool.map ~jobs ~f items
    |> List.map (fun (c : _ Pool.cell) ->
           match c.result with Ok v -> v | Error _ -> Alcotest.fail "cell failed")
  in
  let sequential = run 1 and parallel = run 4 in
  Alcotest.(check (list (pair int int))) "input order" (List.map (fun x -> (x, x * x)) items)
    sequential;
  Alcotest.(check (list (pair int int))) "jobs=4 identical to jobs=1" sequential parallel;
  (* More workers than items: the pool forks only what it needs. *)
  Alcotest.(check (list int)) "jobs=8 over 3 items" [ 2; 3; 4 ]
    (List.map ok_exn_pool (Pool.map ~jobs:8 ~f:succ [ 1; 2; 3 ]))

let test_pool_child_crash () =
  let f x = if x = 2 then Unix._exit 7 else x in
  let cells = Pool.map ~jobs:3 ~retries:2 ~f [ 0; 1; 2; 3; 4 ] in
  List.iteri
    (fun i (c : _ Pool.cell) ->
      if i = 2 then begin
        (match c.result with
        | Error (Pool.Crashed msg) ->
            Alcotest.(check bool) "mentions exit code" true (contains ~sub:"7" msg)
        | _ -> Alcotest.fail "expected Crashed");
        Alcotest.(check int) "retried up to the bound" 3 c.attempts
      end
      else Alcotest.(check int) "other cells unaffected" i (ok_exn_pool c))
    cells

let test_pool_child_exception () =
  let f x = if x = 1 then failwith "boom" else x in
  let cells = Pool.map ~retries:0 ~f [ 0; 1 ] in
  match (List.nth cells 1).Pool.result with
  | Error (Pool.Child_error msg) ->
      Alcotest.(check bool) "carries the message" true (contains ~sub:"boom" msg)
  | _ -> Alcotest.fail "expected Child_error"

let test_pool_timeout () =
  let t0 = Unix.gettimeofday () in
  let f x =
    if x = 1 then Unix.sleepf 30.0;
    x
  in
  let cells = Pool.map ~jobs:2 ~timeout:0.3 ~retries:1 ~f [ 0; 1; 2 ] in
  let hung = List.nth cells 1 in
  (match hung.Pool.result with
  | Error (Pool.Timed_out budget) ->
      Alcotest.(check bool) "budget reported" true (budget > 0.0 && budget < 1.0)
  | _ -> Alcotest.fail "expected Timed_out");
  Alcotest.(check int) "timed-out cell retried" 2 hung.Pool.attempts;
  Alcotest.(check int) "cell 0 fine" 0 (ok_exn_pool (List.nth cells 0));
  Alcotest.(check int) "cell 2 fine" 2 (ok_exn_pool (List.nth cells 2));
  Alcotest.(check bool) "killed, not waited out" true (Unix.gettimeofday () -. t0 < 10.0)

let test_pool_inline_mode () =
  let f x = if x = 1 then failwith "inline boom" else x * 2 in
  let cells = Pool.map ~isolate:false ~retries:1 ~f [ 0; 1; 2 ] in
  Alcotest.(check int) "inline result" 4 (ok_exn_pool (List.nth cells 2));
  match (List.nth cells 1).Pool.result with
  | Error (Pool.Child_error _) -> ()
  | _ -> Alcotest.fail "expected Child_error in inline mode"

(* Every timed-out worker is SIGKILLed; the parent must reap it and
   close its pipe end.  Kill ~100 workers and assert the process ends
   with the fd table back at baseline and no zombie children. *)
let test_pool_kill_storm_no_leaks () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let no_children () =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ -> false (* a live child is still out there *)
    | _ -> false (* an unreaped zombie was waiting for us *)
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  let baseline = count_fds () in
  let items = List.init 100 Fun.id in
  let f x =
    if x mod 2 = 0 then Unix.sleepf 30.0;
    x
  in
  let cells = Pool.map ~jobs:8 ~timeout:0.05 ~retries:0 ~f items in
  let killed =
    List.length
      (List.filter
         (fun (c : _ Pool.cell) ->
           match c.result with Error (Pool.Timed_out _) -> true | _ -> false)
         cells)
  in
  Alcotest.(check int) "half the workers were killed" 50 killed;
  Alcotest.(check int) "fd table back at baseline" baseline (count_fds ());
  Alcotest.(check bool) "no zombies left behind" true (no_children ())

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)
(* ------------------------------------------------------------------ *)

let test_cache_roundtrip () =
  with_dir (fun dir ->
      let c = Cache.create dir in
      Alcotest.(check bool) "miss before store" true (Cache.load c "k1" = None);
      Cache.store c "k1" (42, "x");
      Alcotest.(check (option (pair int string))) "hit" (Some (42, "x")) (Cache.load c "k1");
      Alcotest.(check bool) "mem" true (Cache.mem c "k1");
      Alcotest.(check (list string)) "keys" [ "k1" ] (Cache.keys c);
      Cache.remove c "k1";
      Alcotest.(check bool) "removed" true (Cache.load c "k1" = None))

let test_cache_corrupt_entry_is_miss () =
  with_dir (fun dir ->
      let c = Cache.create dir in
      Cache.store c "k" [ 1; 2; 3 ];
      (* Truncate the entry: a crash mid-write (pre-rename this cannot
         happen, but disk corruption can) must read as a miss. *)
      let file = Filename.concat dir "k.cell" in
      let oc = open_out file in
      output_string oc "garbage";
      close_out oc;
      Alcotest.(check bool) "corrupt entry misses" true (Cache.load c "k" = None))

let test_cache_version_mismatch_is_miss () =
  with_dir (fun dir ->
      let old = Cache.create ~version:"1" dir in
      Cache.store old "k" 1;
      let neu = Cache.create ~version:"2" dir in
      Alcotest.(check bool) "new version misses old entries" true (Cache.load neu "k" = None);
      Alcotest.(check (option int)) "old version still hits" (Some 1) (Cache.load old "k"))

(* ------------------------------------------------------------------ *)
(* Runner: resume semantics                                           *)
(* ------------------------------------------------------------------ *)

let string_key = string_of_int

let test_runner_resume_counts () =
  with_dir (fun dir ->
      let cache = Cache.create dir in
      let items = [ 1; 2; 3; 4; 5; 6 ] in
      let f x = x * 10 in
      let outcomes, stats = Runner.run ~cache ~key:string_key ~f items in
      Alcotest.(check (list int)) "values" [ 10; 20; 30; 40; 50; 60 ]
        (List.map ok_exn outcomes);
      Alcotest.(check int) "first run executes all" 6 stats.Runner.executed;
      Alcotest.(check int) "first run caches none" 0 stats.Runner.cached;
      (* Re-run: every cell must come from the cache, none executed. *)
      let outcomes2, stats2 = Runner.run ~cache ~key:string_key ~f items in
      Alcotest.(check (list int)) "cached values identical" (List.map ok_exn outcomes)
        (List.map ok_exn outcomes2);
      Alcotest.(check int) "resume executes none" 0 stats2.Runner.executed;
      Alcotest.(check int) "resume serves all from cache" 6 stats2.Runner.cached;
      Alcotest.(check bool) "outcomes flagged from_cache" true
        (List.for_all (fun o -> o.Runner.from_cache) outcomes2))

(* A sweep killed halfway leaves a partial cache; the restart must
   execute exactly the missing cells. *)
let test_runner_resume_after_interrupt () =
  with_dir (fun dir ->
      let cache = Cache.create dir in
      let all = [ 1; 2; 3; 4; 5; 6 ] in
      let f x = x * 10 in
      let _, stats1 = Runner.run ~cache ~key:string_key ~f [ 1; 2; 3 ] in
      Alcotest.(check int) "half sweep executed" 3 stats1.Runner.executed;
      let outcomes, stats = Runner.run ~cache ~key:string_key ~f all in
      Alcotest.(check int) "restart executes only missing cells" 3 stats.Runner.executed;
      Alcotest.(check int) "restart reuses finished cells" 3 stats.Runner.cached;
      Alcotest.(check (list int)) "complete results" [ 10; 20; 30; 40; 50; 60 ]
        (List.map ok_exn outcomes))

let test_runner_no_resume_recomputes () =
  with_dir (fun dir ->
      let cache = Cache.create dir in
      let f x = x + 1 in
      let _ = Runner.run ~cache ~key:string_key ~f [ 1; 2 ] in
      let _, stats = Runner.run ~cache ~resume:false ~key:string_key ~f [ 1; 2 ] in
      Alcotest.(check int) "resume:false recomputes" 2 stats.Runner.executed)

let test_runner_failures_not_cached () =
  with_dir (fun dir ->
      let cache = Cache.create dir in
      let f x = if x = 2 then failwith "flaky" else x in
      let outcomes, stats = Runner.run ~cache ~retries:0 ~key:string_key ~f [ 1; 2; 3 ] in
      Alcotest.(check int) "one failure" 1 stats.Runner.failed;
      (match (List.nth outcomes 1).Runner.result with
      | Error (Pool.Child_error _) -> ()
      | _ -> Alcotest.fail "expected structured failure");
      (* The failure must not poison the cache: a resumed run reuses the
         two successes and re-executes only the failed cell. *)
      let f2 x = x in
      let outcomes2, stats2 = Runner.run ~cache ~retries:0 ~key:string_key ~f:f2 [ 1; 2; 3 ] in
      Alcotest.(check int) "only failed cell re-executes" 1 stats2.Runner.executed;
      Alcotest.(check int) "successes came from cache" 2 stats2.Runner.cached;
      Alcotest.(check (list int)) "now complete" [ 1; 2; 3 ] (List.map ok_exn outcomes2))

let test_runner_retry_stats () =
  with_dir (fun dir ->
      (* Crash on the first attempt only, keyed by an on-disk marker so
         the retry (a fresh process) takes the success path. *)
      let marker = Filename.concat dir "attempted" in
      let f x =
        if x = 1 && not (Sys.file_exists marker) then begin
          close_out (open_out marker);
          Unix._exit 9
        end;
        x
      in
      let outcomes, stats = Runner.run ~retries:2 ~key:string_key ~f [ 0; 1 ] in
      Alcotest.(check (list int)) "recovered after retry" [ 0; 1 ] (List.map ok_exn outcomes);
      Alcotest.(check int) "retry counted" 1 stats.Runner.retries;
      Alcotest.(check int) "no terminal failure" 0 stats.Runner.failed)

(* ------------------------------------------------------------------ *)
(* Acceptance: experiment sweep through the runner                    *)
(* ------------------------------------------------------------------ *)

let small_specs =
  Experiment.sweep
    { Experiment.default with k = 4; horizon = 40.0; target_utilization = 2.0 }
    ~schedulers:[ "yarn-concurrent"; "sparrow-concurrent" ]
    ~mus:[ 0.25 ] ~seeds:[ 1; 2 ]

let csv_rows specs outcomes =
  List.map2
    (fun (s : Experiment.spec) o ->
      Sim.Csv_export.row ~scheduler:s.scheduler ~mu:s.mu ~setup:s.setup ~seed:s.seed
        (ok_exn o))
    specs outcomes

(* The acceptance property: a --jobs 4 sweep emits byte-identical result
   rows to the sequential run, and both match the in-process reference
   path.  (Deterministic simulation metrics only; measured wall-clock
   columns are excluded by using non-flow schedulers, whose solver
   histogram is empty.) *)
let test_sweep_parallel_byte_identical () =
  let run ?isolate jobs =
    let outcomes, _ =
      Runner.run ~jobs ?isolate ~key:Experiment.cell_key ~f:Experiment.run small_specs
    in
    csv_rows small_specs outcomes
  in
  let inline = run ~isolate:false 1 and sequential = run 1 and parallel = run 4 in
  Alcotest.(check (list string)) "forked jobs=1 byte-identical to inline" inline sequential;
  Alcotest.(check (list string)) "byte-identical CSV rows" sequential parallel

(* The acceptance property: a killed sweep restarted with resume
   completes using cached cells only. *)
let test_sweep_resume_cached_only () =
  with_dir (fun dir ->
      let cache = Cache.create dir in
      let half = List.filteri (fun i _ -> i < 2) small_specs in
      let _, stats0 =
        Runner.run ~jobs:2 ~cache ~key:Experiment.cell_key ~f:Experiment.run half
      in
      Alcotest.(check int) "interrupted sweep ran 2 cells" 2 stats0.Runner.executed;
      let outcomes, stats =
        Runner.run ~jobs:2 ~cache ~key:Experiment.cell_key ~f:Experiment.run small_specs
      in
      Alcotest.(check int) "restart executed only the missing cells" 2 stats.Runner.executed;
      Alcotest.(check int) "finished cells came from the cache" 2 stats.Runner.cached;
      Alcotest.(check int) "no failures" 0 stats.Runner.failed;
      (* Cached and fresh cells must be indistinguishable in content. *)
      let fresh, _ =
        Runner.run ~jobs:2 ~key:Experiment.cell_key ~f:Experiment.run small_specs
      in
      Alcotest.(check (list string)) "cached rows byte-identical to fresh rows"
        (csv_rows small_specs fresh) (csv_rows small_specs outcomes);
      (* And a second resumed run is now fully cached. *)
      let _, stats2 =
        Runner.run ~jobs:2 ~cache ~key:Experiment.cell_key ~f:Experiment.run small_specs
      in
      Alcotest.(check int) "fully resumed run executes nothing" 0 stats2.Runner.executed;
      Alcotest.(check int) "fully resumed run is all cache" (List.length small_specs)
        stats2.Runner.cached)

let () =
  Alcotest.run "runner"
    [
      ( "pool",
        [
          Alcotest.test_case "deterministic input-order results" `Quick
            test_pool_order_deterministic;
          Alcotest.test_case "child crash -> bounded retry -> structured failure" `Quick
            test_pool_child_crash;
          Alcotest.test_case "child exception -> Child_error" `Quick test_pool_child_exception;
          Alcotest.test_case "timeout kills and retries" `Quick test_pool_timeout;
          Alcotest.test_case "inline (no-fork) mode" `Quick test_pool_inline_mode;
          Alcotest.test_case "kill storm leaks no fds or zombies" `Quick
            test_pool_kill_storm_no_leaks;
        ] );
      ( "cache",
        [
          Alcotest.test_case "store/load/remove roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "corrupt entry reads as miss" `Quick
            test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "version mismatch reads as miss" `Quick
            test_cache_version_mismatch_is_miss;
        ] );
      ( "resume",
        [
          Alcotest.test_case "re-run serves every cell from cache" `Quick
            test_runner_resume_counts;
          Alcotest.test_case "interrupted run resumes missing cells only" `Quick
            test_runner_resume_after_interrupt;
          Alcotest.test_case "resume:false recomputes" `Quick test_runner_no_resume_recomputes;
          Alcotest.test_case "failures are not cached" `Quick test_runner_failures_not_cached;
          Alcotest.test_case "retry recovers and is counted" `Quick test_runner_retry_stats;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "parallel sweep byte-identical to sequential" `Slow
            test_sweep_parallel_byte_identical;
          Alcotest.test_case "killed sweep resumes from cached cells only" `Slow
            test_sweep_resume_cached_only;
        ] );
    ]
