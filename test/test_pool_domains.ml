(* Tests for the domain-pool evaluation mode of lib/runner
   ([Runner.Pool.Domains]): input-order results, retry inside a worker,
   contained errors, and agreement with the inline mode.  They live in
   their own executable because a process that has spawned a domain can
   no longer fork, and test_runner exercises the fork pool. *)

module Runner = Runner
module Pool = Runner.Pool

let results_of cells =
  List.map
    (fun (c : _ Pool.cell) ->
      match c.result with
      | Ok v -> v
      | Error reason -> Alcotest.failf "unexpected failure: %s" (Pool.reason_to_string reason))
    cells

let test_domains_input_order () =
  let items = List.init 20 Fun.id in
  let cells = Pool.map ~jobs:4 ~retries:0 ~mode:Pool.Domains ~f:(fun x -> x * x) items in
  Alcotest.(check (list int)) "squares in input order"
    (List.map (fun x -> x * x) items)
    (results_of cells)

let test_domains_more_jobs_than_items () =
  let cells = Pool.map ~jobs:8 ~retries:0 ~mode:Pool.Domains ~f:succ [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "all evaluated" [ 2; 3; 4 ] (results_of cells)

let test_domains_retries_flaky_cell () =
  let attempts = Atomic.make 0 in
  let f x =
    if x = 3 && Atomic.fetch_and_add attempts 1 = 0 then failwith "flaky" else x
  in
  let cells = Pool.map ~jobs:2 ~retries:1 ~mode:Pool.Domains ~f [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "recovered" [ 1; 2; 3; 4 ] (results_of cells);
  let c3 = List.nth cells 2 in
  Alcotest.(check int) "flaky cell took two attempts" 2 c3.Pool.attempts

let test_domains_error_cell_is_contained () =
  let f x = if x = 2 then failwith "boom" else x * 10 in
  let cells = Pool.map ~jobs:2 ~retries:1 ~mode:Pool.Domains ~f [ 1; 2; 3 ] in
  (match (List.nth cells 1).Pool.result with
  | Error (Pool.Child_error msg) ->
      Alcotest.(check bool) "carries the exception" true
        (String.length msg > 0 && (List.nth cells 1).Pool.attempts = 2)
  | _ -> Alcotest.fail "expected Child_error for the raising cell");
  (match (List.nth cells 0).Pool.result with
  | Ok v -> Alcotest.(check int) "neighbours unaffected" 10 v
  | Error _ -> Alcotest.fail "healthy cell failed");
  match (List.nth cells 2).Pool.result with
  | Ok v -> Alcotest.(check int) "neighbours unaffected" 30 v
  | Error _ -> Alcotest.fail "healthy cell failed"

let test_runner_domains_matches_inline () =
  let items = List.init 12 Fun.id in
  let key = string_of_int in
  let f x = (x, x * x) in
  let run mode =
    let outcomes, stats = Runner.run ~jobs:3 ~retries:0 ~mode ~key ~f items in
    ( List.map
        (fun (o : _ Runner.outcome) ->
          match o.Runner.result with Ok v -> v | Error _ -> Alcotest.fail "cell failed")
        outcomes,
      stats.Runner.executed )
  in
  let dv, dn = run Pool.Domains and iv, inl = run Pool.Inline in
  Alcotest.(check bool) "identical values" true (dv = iv);
  Alcotest.(check int) "all executed (domains)" 12 dn;
  Alcotest.(check int) "all executed (inline)" 12 inl

let () =
  Alcotest.run "pool_domains"
    [
      ( "pool-domains",
        [
          Alcotest.test_case "results in input order" `Quick test_domains_input_order;
          Alcotest.test_case "more jobs than items" `Quick test_domains_more_jobs_than_items;
          Alcotest.test_case "flaky cell retried in-worker" `Quick
            test_domains_retries_flaky_cell;
          Alcotest.test_case "raising cell contained" `Quick
            test_domains_error_cell_is_contained;
          Alcotest.test_case "runner domain mode matches inline" `Quick
            test_runner_domains_matches_inline;
        ] );
    ]
