(* Tests for the solver portfolio race (docs/PARALLELISM.md): the
   deterministic-priority race on OCaml 5 domains, budgeted cancellation
   of losers, end-to-end equivalence with the serial fallback chain, and
   the domain-pool evaluation mode of the runner.

   The failpoint registry is pinned explicitly ([with_solver_faults]
   under [Fun.protect], [Failpt.deactivate] elsewhere) so the suite
   behaves identically whether or not HIRE_FAILPOINTS is set.  Every
   race is forced eager ([~eager:true]) so the domain fan-out is
   exercised even on single-core CI hosts. *)

module Graph = Flow.Graph
module Mcmf = Flow.Mcmf
module Budget = Flow.Budget
module Portfolio = Flow.Portfolio
module Poly_req = Hire.Poly_req
module Comp_req = Hire.Comp_req
module Comp_store = Hire.Comp_store
module Transformer = Hire.Transformer
module Pool = Runner.Pool
module Vec = Prelude.Vec
module Rng = Prelude.Rng

let store = Comp_store.default ()

(* The solver schedule the CI gates run the whole suite under. *)
let with_solver_faults seed f =
  Failpt.load
    (Printf.sprintf
       "seed=%d;solve.exhaust=25%%trip;solve.delay=25%%delay(0.001);flow.corrupt=50%%trip"
       seed);
  Fun.protect ~finally:Failpt.deactivate f

(* n unit paths s -> m_i -> t with distinct costs (same fixture as
   test_resilience): SSP needs exactly n augmentations. *)
let fan_graph n =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  for i = 1 to n do
    let m = Graph.add_node g in
    ignore (Graph.add_arc g ~src:s ~dst:m ~cap:1 ~cost:i);
    ignore (Graph.add_arc g ~src:m ~dst:t ~cap:1 ~cost:1)
  done;
  Graph.set_supply g s n;
  Graph.set_supply g t (-n);
  g

let empty_degraded g name =
  {
    Mcmf.shipped = 0;
    unshipped = Graph.total_positive_supply g;
    total_cost = 0;
    augmentations = 0;
    elapsed_s = 0.0;
    degraded = true;
    profile = Obs.Solver_profile.zero ~solver:name;
  }

let ssp_job =
  { Portfolio.name = "ssp"; run = (fun ~ctl g -> Mcmf.solve ~ctl g) }

(* Burns budget steps until the budget (or a cancellation) fires, then
   reports a degraded empty solve — a deliberately-stalled backend. *)
let stall_job =
  {
    Portfolio.name = "stall";
    run =
      (fun ~ctl g ->
        while Budget.check ctl = None do
          Budget.spend ctl 1
        done;
        empty_degraded g "stall");
  }

let accept_healthy _i (e : Portfolio.entry) =
  match e.Portfolio.result with
  | Some r -> (not r.Mcmf.degraded) && r.Mcmf.shipped > 0
  | None -> false

(* ------------------------------------------------------------------ *)
(* The race itself                                                     *)
(* ------------------------------------------------------------------ *)

let test_stalled_backend_loses () =
  Failpt.deactivate ();
  let source = fan_graph 6 in
  (* 50 steps: plenty for SSP's 6 augmentations, a hard stop for the
     staller — it must lose within its own budget, not hang the race. *)
  let o =
    Portfolio.race ~eager:true
      ~budget:(Budget.make ~max_steps:50 ())
      ~source ~decide:accept_healthy [ stall_job; ssp_job ]
  in
  Alcotest.(check (option int)) "real solver wins" (Some 1) o.Portfolio.winner;
  let stalled = o.Portfolio.entries.(0) in
  Alcotest.(check bool) "staller ran" true stalled.Portfolio.ran;
  (match stalled.Portfolio.result with
  | Some r -> Alcotest.(check bool) "staller degraded" true r.Mcmf.degraded
  | None -> Alcotest.fail "staller produced no result");
  (match Option.map Budget.check stalled.Portfolio.ctl with
  | Some (Some (Budget.Steps _)) | Some (Some Budget.Cancelled) -> ()
  | _ -> Alcotest.fail "staller's budget should report Steps or Cancelled");
  (* The winner's solve matches a plain serial solve. *)
  let serial = Mcmf.solve (fan_graph 6) in
  match o.Portfolio.entries.(1).Portfolio.result with
  | Some r ->
      Alcotest.(check int) "same shipped" serial.Mcmf.shipped r.Mcmf.shipped;
      Alcotest.(check int) "same cost" serial.Mcmf.total_cost r.Mcmf.total_cost
  | None -> Alcotest.fail "winner produced no result"

let test_loser_is_cancelled () =
  Failpt.deactivate ();
  let source = fan_graph 4 in
  (* Unlimited budget: the spinner can only be stopped by the
     cancellation flag the coordinator sets once the winner is in. *)
  let o =
    Portfolio.race ~eager:true ~budget:Budget.unlimited ~source
      ~decide:accept_healthy [ ssp_job; stall_job ]
  in
  Alcotest.(check (option int)) "priority backend wins" (Some 0) o.Portfolio.winner;
  let loser = o.Portfolio.entries.(1) in
  Alcotest.(check bool) "loser ran" true loser.Portfolio.ran;
  Alcotest.(check bool) "loser was cancelled" true loser.Portfolio.cancel_requested;
  match Option.map Budget.check loser.Portfolio.ctl with
  | Some (Some Budget.Cancelled) -> ()
  | _ -> Alcotest.fail "loser's budget should report Cancelled"

let test_lazy_mode_skips_after_winner () =
  Failpt.deactivate ();
  let source = fan_graph 4 in
  let o =
    Portfolio.race ~eager:false ~budget:Budget.unlimited ~source
      ~decide:accept_healthy [ ssp_job; stall_job ]
  in
  Alcotest.(check (option int)) "first job wins" (Some 0) o.Portfolio.winner;
  Alcotest.(check bool) "lazy" false o.Portfolio.eager;
  let skipped = o.Portfolio.entries.(1) in
  Alcotest.(check bool) "second job never ran" false skipped.Portfolio.ran;
  Alcotest.(check bool) "and was not cancelled" false skipped.Portfolio.cancel_requested

let test_decide_order_is_priority_order () =
  Failpt.deactivate ();
  let source = fan_graph 3 in
  let seen = ref [] in
  let reject_all i (e : Portfolio.entry) =
    seen := (i, e.Portfolio.name) :: !seen;
    false
  in
  (* The step budget lets the staller stop on its own: with every entry
     rejected the coordinator joins all jobs, so nothing may depend on a
     winner-triggered cancellation here. *)
  let o =
    Portfolio.race ~eager:true
      ~budget:(Budget.make ~max_steps:10 ())
      ~source ~decide:reject_all [ ssp_job; stall_job; ssp_job ]
  in
  ignore o;
  Alcotest.(check (list (pair int string)))
    "consulted in priority order"
    [ (0, "ssp"); (1, "stall"); (2, "ssp") ]
    (List.rev !seen)

(* A rejected-everywhere race reports no winner and leaves the source
   graph untouched (solves happen on private copies). *)
let test_no_winner_and_source_untouched () =
  Failpt.deactivate ();
  let source = fan_graph 5 in
  let o =
    Portfolio.race ~eager:true
      ~budget:(Budget.make ~max_steps:2 ())
      ~source
      ~decide:(fun _ _ -> false)
      [ ssp_job; ssp_job ]
  in
  Alcotest.(check (option int)) "no winner" None o.Portfolio.winner;
  for a = 0 to (2 * Graph.arc_count source) - 1 do
    if Graph.is_forward a then Alcotest.(check int) "source arc flow" 0 (Graph.flow source a)
  done

(* ------------------------------------------------------------------ *)
(* End-to-end equivalence with the serial chain                        *)
(* ------------------------------------------------------------------ *)

let server_only_req ?(cpu = 2.0) n =
  {
    Comp_req.priority = Workload.Job.Batch;
    composites =
      [
        {
          Comp_req.comp_id = "c0";
          template = "server";
          base = { Comp_req.instances = n; cpu; mem = 4.0; duration = 30.0 };
          inc_alternatives = [];
        };
      ];
    connections = [];
  }

let inc_req ?(service = "netchain") ?(n = 10) () =
  {
    Comp_req.priority = Workload.Job.Batch;
    composites =
      [
        {
          Comp_req.comp_id = "c0";
          template = Option.get (Comp_store.template_of_service store service);
          base = { Comp_req.instances = n; cpu = 2.0; mem = 4.0; duration = 30.0 };
          inc_alternatives = [ service ];
        };
      ];
    connections = [];
  }

let make_cluster seed =
  Sim.Cluster.create ~inc_capable_fraction:1.0 ~k:4 ~setup:Sim.Cluster.Homogeneous
    ~services:(Array.to_list (Comp_store.service_names store))
    (Rng.create (seed land 0xFFFF))

let arrivals_fixture rng ids =
  List.init 6 (fun i ->
      let req = if i mod 2 = 0 then inc_req () else server_only_req 3 in
      ( float_of_int i,
        Transformer.transform store ids rng ~job_id:i ~arrival:(float_of_int i) req ))

(* One full simulation with every round's externally visible decisions
   logged: placements (tg, machine, sharing), cancellations, and the
   per-round resilience record. *)
let run_logged ~portfolio ~resilience seed =
  let rng = Rng.create seed in
  let cluster = make_cluster seed in
  let ids = Transformer.Id_gen.create () in
  let arrivals = arrivals_fixture rng ids in
  let sched =
    Schedulers.Registry.create ~resilience ~portfolio ~portfolio_eager:true "hire"
      ~seed:17 cluster
  in
  let log = ref [] in
  let logged =
    {
      sched with
      Sim.Scheduler_intf.round =
        (fun ~time ->
          let r = sched.Sim.Scheduler_intf.round ~time in
          let ps =
            List.map
              (fun (p : Sim.Scheduler_intf.placement) ->
                (p.tg.Poly_req.tg_id, p.machine, p.shared))
              r.Sim.Scheduler_intf.placements
          in
          let cs = List.map (fun tg -> tg.Poly_req.tg_id) r.Sim.Scheduler_intf.cancelled in
          log := (ps, cs, r.Sim.Scheduler_intf.resilience) :: !log;
          r);
    }
  in
  let result = Sim.Simulator.run cluster logged arrivals in
  (List.rev !log, cluster, result.Sim.Simulator.report)

let conserved cluster =
  let topo = Sim.Cluster.topo cluster in
  Vec.is_zero (Sim.Cluster.switch_used_total cluster)
  && Array.for_all
       (fun s ->
         Vec.equal (Sim.Cluster.server_available cluster s)
           (Sim.Cluster.server_capacity cluster))
       (Topology.Fat_tree.servers topo)

let deterministic_fields (r : Sim.Metrics.report) =
  ( ( r.Sim.Metrics.jobs_total,
      r.Sim.Metrics.tgs_total,
      r.Sim.Metrics.tgs_satisfied,
      r.Sim.Metrics.tgs_cancelled,
      r.Sim.Metrics.rounds ),
    ( r.Sim.Metrics.degraded_rounds,
      r.Sim.Metrics.fallback_rounds,
      r.Sim.Metrics.fallback_depth_max,
      r.Sim.Metrics.guard_trips,
      r.Sim.Metrics.salvaged_tasks ) )

let check_equivalent ~name seed budget =
  let resilience = Hire.Hire_scheduler.resilience ?budget ~guard_every:3 () in
  (* Fresh schedule per arm: both evaluate the same per-site draw
     sequences, which is exactly what the portfolio's decide-side replay
     promises (docs/PARALLELISM.md). *)
  let serial_log, serial_cluster, serial_r =
    with_solver_faults seed (fun () -> run_logged ~portfolio:false ~resilience seed)
  in
  let raced_log, raced_cluster, raced_r =
    with_solver_faults seed (fun () -> run_logged ~portfolio:true ~resilience seed)
  in
  let ok =
    serial_log = raced_log
    && deterministic_fields serial_r = deterministic_fields raced_r
    && conserved serial_cluster && conserved raced_cluster
  in
  if not ok then
    Alcotest.failf "%s: portfolio diverged from serial (seed %d): logs %b fields %b"
      name seed (serial_log = raced_log)
      (deterministic_fields serial_r = deterministic_fields raced_r);
  serial_r

let test_portfolio_matches_serial_chaos () =
  let r = check_equivalent ~name:"chaos+steps" 1234 (Some (Budget.make ~max_steps:5 ())) in
  (* The fixture must actually exercise the degraded paths being raced. *)
  Alcotest.(check bool) "degraded rounds observed" true (r.Sim.Metrics.degraded_rounds > 0)

let test_portfolio_matches_serial_unbudgeted () =
  ignore (check_equivalent ~name:"chaos-only" 77 None)

(* Randomized: for any seed and any step budget, a portfolio race under
   the solver failpoint schedule — whatever the winner or cancellation
   timing — produces the exact placement log, ledgers, and report of the
   serial SSP-first chain.  Wall-clock budgets are excluded by design: they are
   nondeterministic in both modes. *)
let prop_portfolio_equiv_serial =
  QCheck.Test.make ~name:"portfolio race == serial chain (placements, ledgers, reports)"
    ~count:6
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 2))
    (fun (seed, budget_kind) ->
      let budget =
        match budget_kind with
        | 0 -> Some (Budget.make ~max_steps:5 ())
        | 1 -> Some (Budget.make ~max_steps:50 ())
        | _ -> None
      in
      ignore (check_equivalent ~name:"qcheck" seed budget);
      true)

(* ------------------------------------------------------------------ *)
(* Domain-pool evaluation mode                                         *)
(* ------------------------------------------------------------------ *)

let results_of cells =
  List.map
    (fun (c : _ Pool.cell) ->
      match c.Pool.result with
      | Ok v -> v
      | Error r -> Alcotest.failf "cell failed: %s" (Pool.reason_to_string r))
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

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "portfolio"
    [
      ( "race",
        [
          quick "stalled backend loses within its budget" test_stalled_backend_loses;
          quick "loser is cancelled once a winner is in" test_loser_is_cancelled;
          quick "lazy mode skips jobs after the winner" test_lazy_mode_skips_after_winner;
          quick "decide consulted in priority order" test_decide_order_is_priority_order;
          quick "no winner, source graph untouched" test_no_winner_and_source_untouched;
        ] );
      ( "equivalence",
        [
          quick "chaos + step budget matches serial" test_portfolio_matches_serial_chaos;
          quick "chaos, no budget matches serial" test_portfolio_matches_serial_unbudgeted;
        ]
        @ qt [ prop_portfolio_equiv_serial ] );
      ( "pool-domains",
        [
          quick "results in input order" test_domains_input_order;
          quick "more jobs than items" test_domains_more_jobs_than_items;
          quick "flaky cell retried in-worker" test_domains_retries_flaky_cell;
          quick "raising cell contained" test_domains_error_cell_is_contained;
          quick "runner domain mode matches inline" test_runner_domains_matches_inline;
        ] );
    ]
