(* Tests for the solver-resilience layer (docs/RESILIENCE.md): solve
   budgets and graceful degradation on both MCMF backends, the solver
   failpoint sites (solve.exhaust, solve.delay, flow.corrupt), the
   runtime invariant guard, the greedy last-rung placer, and end-to-end
   runs under pathological budgets.

   The failpoint registry is pinned explicitly in every test
   ([Failpt.deactivate] / [with_solver_faults] under [Fun.protect]), so
   the suite behaves identically whether or not HIRE_FAILPOINTS is set
   in the environment. *)

module Graph = Flow.Graph
module Mcmf = Flow.Mcmf
module Cost_scaling = Flow.Cost_scaling
module Budget = Flow.Budget
module Verify = Flow.Verify
module Guard = Hire.Guard
module Pending = Hire.Pending
module Poly_req = Hire.Poly_req
module Cost_model = Hire.Cost_model
module Comp_req = Hire.Comp_req
module Comp_store = Hire.Comp_store
module Transformer = Hire.Transformer
module Vec = Prelude.Vec
module Rng = Prelude.Rng

let store = Comp_store.default ()

let make_cluster ?(k = 4) ?(setup = Sim.Cluster.Homogeneous) ?(fraction = 1.0) ?(seed = 3)
    () =
  Sim.Cluster.create ~inc_capable_fraction:fraction ~k ~setup
    ~services:(Array.to_list (Comp_store.service_names store))
    (Rng.create seed)

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

(* n unit paths s -> m_i -> t with distinct costs: SSP needs exactly n
   augmentations, so step budgets cut it at a known prefix. *)
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

(* ------------------------------------------------------------------ *)
(* Budgets on the SSP backend                                          *)
(* ------------------------------------------------------------------ *)

let test_ssp_step_budget_partial () =
  Failpt.deactivate ();
  let g = fan_graph 8 in
  let r = Mcmf.solve ~budget:(Budget.make ~max_steps:3 ()) g in
  Alcotest.(check bool) "degraded" true r.Mcmf.degraded;
  Alcotest.(check int) "shipped = step budget" 3 r.Mcmf.shipped;
  Alcotest.(check int) "unshipped remainder" 5 r.Mcmf.unshipped;
  (* The partial flow is a valid min-cost flow for its value. *)
  (match Verify.check g with
  | Ok () -> ()
  | Error v -> Alcotest.failf "partial flow invalid: %a" Verify.pp_violation v);
  (* SSP augments cheapest-first, so the salvaged prefix is the 3
     cheapest paths: (1+1) + (2+1) + (3+1). *)
  Alcotest.(check int) "prefix cost" 9 r.Mcmf.total_cost

let test_ssp_unlimited_budget_identical () =
  Failpt.deactivate ();
  let g1 = fan_graph 8 and g2 = fan_graph 8 in
  let r1 = Mcmf.solve g1 in
  let r2 = Mcmf.solve ~budget:Budget.unlimited g2 in
  Alcotest.(check bool) "not degraded" false r2.Mcmf.degraded;
  Alcotest.(check int) "same shipped" r1.Mcmf.shipped r2.Mcmf.shipped;
  Alcotest.(check int) "same cost" r1.Mcmf.total_cost r2.Mcmf.total_cost

let test_ssp_wall_zero () =
  Failpt.deactivate ();
  let g = fan_graph 4 in
  let r = Mcmf.solve ~budget:(Budget.make ~max_wall_s:0.0 ()) g in
  Alcotest.(check bool) "degraded" true r.Mcmf.degraded;
  Alcotest.(check int) "nothing shipped" 0 r.Mcmf.shipped;
  match Verify.check g with
  | Ok () -> ()
  | Error v -> Alcotest.failf "zero flow invalid: %a" Verify.pp_violation v

(* ------------------------------------------------------------------ *)
(* Budgets on the cost-scaling backend                                 *)
(* ------------------------------------------------------------------ *)

let test_cost_scaling_abort_resets_flow () =
  Failpt.deactivate ();
  let g = fan_graph 8 in
  let r = Cost_scaling.solve ~budget:(Budget.make ~max_steps:1 ()) g in
  Alcotest.(check bool) "degraded" true r.Mcmf.degraded;
  Alcotest.(check int) "nothing shipped" 0 r.Mcmf.shipped;
  Alcotest.(check int) "all unshipped" 8 r.Mcmf.unshipped;
  (* The abort resets to the zero flow: every real arc carries 0. *)
  Graph.iter_arcs g (fun a -> Alcotest.(check int) "arc flow" 0 (Graph.flow g a));
  match Verify.check g with
  | Ok () -> ()
  | Error v -> Alcotest.failf "reset flow invalid: %a" Verify.pp_violation v

let test_cost_scaling_unlimited_budget_identical () =
  Failpt.deactivate ();
  let g1 = fan_graph 6 and g2 = fan_graph 6 in
  let r1 = Cost_scaling.solve g1 in
  let r2 = Cost_scaling.solve ~budget:Budget.unlimited g2 in
  Alcotest.(check bool) "not degraded" false r2.Mcmf.degraded;
  Alcotest.(check int) "same shipped" r1.Mcmf.shipped r2.Mcmf.shipped;
  Alcotest.(check int) "same cost" r1.Mcmf.total_cost r2.Mcmf.total_cost

(* ------------------------------------------------------------------ *)
(* Budget state machine                                                *)
(* ------------------------------------------------------------------ *)

let test_budget_forced_exhaustion_sticky () =
  Failpt.deactivate ();
  let st = Budget.start Budget.unlimited in
  Alcotest.(check bool) "unlimited never fires" true (Budget.check st = None);
  Failpt.load "solve.exhaust=trip";
  Fun.protect ~finally:Failpt.deactivate @@ fun () ->
  let st = Option.get (Budget.for_solve ~budget:Budget.unlimited ()) in
  (match Budget.check st with
  | Some Budget.Injected -> ()
  | _ -> Alcotest.fail "forced exhaustion should report Injected");
  (* Sticky: stays exhausted on re-check. *)
  Alcotest.(check bool) "sticky" true (Budget.check st <> None)

let test_budget_injected_delay_ages_wall () =
  Failpt.deactivate ();
  let budget = Budget.make ~max_wall_s:10.0 () in
  Alcotest.(check bool) "fresh budget ok" true (Budget.check (Budget.start budget) = None);
  Failpt.load "solve.delay=delay(11)";
  Fun.protect ~finally:Failpt.deactivate @@ fun () ->
  match Budget.check (Option.get (Budget.for_solve ~budget ())) with
  | Some (Budget.Wall_clock _) -> ()
  | _ -> Alcotest.fail "injected delay should exhaust the wall budget"

(* ------------------------------------------------------------------ *)
(* Solver failpoint sites                                              *)
(* ------------------------------------------------------------------ *)

(* The solver schedule the CI gates run the whole suite under. *)
let with_solver_faults seed f =
  Failpt.load
    (Printf.sprintf
       "seed=%d;solve.exhaust=25%%trip;solve.delay=25%%delay(0.001);flow.corrupt=50%%trip"
       seed);
  Fun.protect ~finally:Failpt.deactivate f

let test_chaos_corruption_caught_by_verify () =
  with_solver_faults 42 @@ fun () ->
  (* The site fires with p=1/2; try fresh graphs until it does. *)
  let rec go tries =
    if tries = 0 then Alcotest.fail "flow.corrupt never fired in 64 evaluations"
    else begin
      let g = fan_graph 6 in
      let r = Mcmf.solve g in
      Alcotest.(check bool) "unbudgeted solve untouched" false r.Mcmf.degraded;
      match Verify.inject_corruption g with
      | None -> go (tries - 1)
      | Some _ -> (
          match Verify.check g with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "corrupted flow passed Verify.check")
    end
  in
  go 64

(* solve.* reach budgeted solves only: an unbudgeted solve has no state
   to perturb. *)
let test_solve_sites_budgeted_only () =
  Failpt.activate ~seed:1;
  Fun.protect ~finally:Failpt.deactivate @@ fun () ->
  Failpt.set "solve.exhaust" "trip";
  Failpt.set "solve.delay" "delay(11)";
  Alcotest.(check bool) "unbudgeted: no state" true (Budget.for_solve () = None);
  (match Budget.for_solve ~budget:(Budget.make ~max_wall_s:10.0 ()) () with
  | Some st -> (
      match Budget.check st with
      | Some Budget.Injected -> ()
      | _ -> Alcotest.fail "solve.exhaust=trip should force exhaustion")
  | None -> Alcotest.fail "budgeted solve must get a state");
  Failpt.clear "solve.exhaust";
  (match Budget.for_solve ~budget:(Budget.make ~max_wall_s:10.0 ()) () with
  | Some st -> (
      match Budget.check st with
      | Some (Budget.Wall_clock _) -> ()
      | _ -> Alcotest.fail "solve.delay should age the wall clock past the cap")
  | None -> Alcotest.fail "budgeted solve must get a state");
  Failpt.set "solve.exhaust" "trip";
  let r = Mcmf.solve ~budget:(Budget.make ~max_steps:100 ()) (fan_graph 4) in
  Alcotest.(check bool) "budgeted SSP degrades" true r.Mcmf.degraded;
  let r = Mcmf.solve (fan_graph 4) in
  Alcotest.(check bool) "unbudgeted SSP exact" false r.Mcmf.degraded

let test_chaos_off_is_inert () =
  Failpt.deactivate ();
  (match Budget.for_solve ~budget:(Budget.make ~max_steps:100 ()) () with
  | Some st -> Alcotest.(check bool) "no perturbation" true (Budget.check st = None)
  | None -> Alcotest.fail "budgeted solve must get a state");
  let g = fan_graph 3 in
  ignore (Mcmf.solve g);
  Alcotest.(check bool) "no corruption" true (Verify.inject_corruption g = None)

(* ------------------------------------------------------------------ *)
(* Invariant guard                                                     *)
(* ------------------------------------------------------------------ *)

let guard_fixture ?(cpu = 2.0) () =
  let cluster = make_cluster () in
  let view = Sim.Cluster.view cluster in
  let ids = Transformer.Id_gen.create () in
  let poly =
    Transformer.transform store ids (Rng.create 5) ~job_id:1 ~arrival:0.0
      (server_only_req ~cpu 4)
  in
  let job = Pending.of_poly poly in
  (view, job.Pending.tg_states.(0))

let check_err name expected result =
  match result with
  | Ok () -> Alcotest.failf "%s: expected a violation" name
  | Error v ->
      Alcotest.(check bool) name true (expected v);
      (* Every violation renders. *)
      Alcotest.(check bool) (name ^ " renders") true
        (String.length (Format.asprintf "%a" Guard.pp_violation v) > 0)

let test_guard_accepts_valid_placements () =
  let view, ts = guard_fixture () in
  let params = Cost_model.default_params in
  let servers = Topology.Fat_tree.servers view.Hire.View.topo in
  let p = [ (ts, servers.(0)); (ts, servers.(1)) ] in
  match Guard.check_placements view ~params ~placements:p with
  | Ok () -> ()
  | Error v -> Alcotest.failf "valid placements rejected: %a" Guard.pp_violation v

let test_guard_machine_overuse () =
  let view, ts = guard_fixture () in
  let params = Cost_model.default_params in
  let s = (Topology.Fat_tree.servers view.Hire.View.topo).(0) in
  check_err "machine overuse"
    (function Guard.Machine_overuse _ -> true | _ -> false)
    (Guard.check_placements view ~params ~placements:[ (ts, s); (ts, s) ])

let test_guard_group_overplace () =
  let view, ts = guard_fixture () in
  let params = Cost_model.default_params in
  let servers = Topology.Fat_tree.servers view.Hire.View.topo in
  ts.Pending.remaining <- 1;
  check_err "group overplace"
    (function Guard.Group_overplace _ -> true | _ -> false)
    (Guard.check_placements view ~params
       ~placements:[ (ts, servers.(0)); (ts, servers.(1)) ])

let test_guard_server_overcommit () =
  let view, ts = guard_fixture ~cpu:1e6 () in
  let params = Cost_model.default_params in
  let s = (Topology.Fat_tree.servers view.Hire.View.topo).(0) in
  check_err "server overcommit"
    (function Guard.Server_overcommit _ -> true | _ -> false)
    (Guard.check_placements view ~params ~placements:[ (ts, s) ])

let test_guard_flow_check_flags_corruption () =
  Failpt.deactivate ();
  let g = fan_graph 4 in
  ignore (Mcmf.solve g);
  (match Guard.check_flow g with
  | Ok () -> ()
  | Error v -> Alcotest.failf "valid flow rejected: %a" Guard.pp_violation v);
  (* Hand-corrupt one s->m arc (dst is an internal node). *)
  Graph.corrupt_flow g 0 1;
  check_err "flow corruption"
    (function Guard.Flow_violation _ -> true | _ -> false)
    (Guard.check_flow g)

(* ------------------------------------------------------------------ *)
(* End-to-end degradation                                              *)
(* ------------------------------------------------------------------ *)

let arrivals_fixture ?(server_only = false) rng ids =
  List.init 6 (fun i ->
      let req =
        if (not server_only) && i mod 2 = 0 then inc_req () else server_only_req 3
      in
      ( float_of_int i,
        Transformer.transform store ids rng ~job_id:i ~arrival:(float_of_int i) req ))

let run_resilient ?server_only ?resilience ?(seed = 11) () =
  let rng = Rng.create seed in
  let cluster = make_cluster ~seed:(seed land 0xFFFF) () in
  let ids = Transformer.Id_gen.create () in
  let arrivals = arrivals_fixture ?server_only rng ids in
  let sched = Schedulers.Registry.create ?resilience "hire" ~seed:17 cluster in
  let result = Sim.Simulator.run cluster sched arrivals in
  (cluster, sched, result.Sim.Simulator.report)

let assert_conserved ?(drained = true) name cluster (sched : Sim.Scheduler_intf.t) =
  let topo = Sim.Cluster.topo cluster in
  Alcotest.(check bool)
    (name ^ ": switch ledger drained")
    true
    (Vec.is_zero (Sim.Cluster.switch_used_total cluster));
  Alcotest.(check bool)
    (name ^ ": server ledger drained")
    true
    (Array.for_all
       (fun s ->
         Vec.equal (Sim.Cluster.server_available cluster s)
           (Sim.Cluster.server_capacity cluster))
       (Topology.Fat_tree.servers topo));
  if drained then
    Alcotest.(check bool) (name ^ ": scheduler drained") false (sched.pending ())

let test_e2e_zero_budget_degrades_and_completes () =
  Failpt.deactivate ();
  (* Server-only arrivals: the greedy last rung never makes flavor
     decisions, so only flavor-free work is guaranteed to drain when
     every solve exhausts its budget. *)
  let resilience =
    Hire.Hire_scheduler.resilience ~budget:(Budget.make ~max_wall_s:0.0 ()) ()
  in
  let cluster, sched, r = run_resilient ~server_only:true ~resilience () in
  Alcotest.(check bool) "degraded rounds observed" true (r.Sim.Metrics.degraded_rounds > 0);
  Alcotest.(check bool) "work still placed" true (r.Sim.Metrics.tgs_satisfied > 0);
  Alcotest.(check bool) "greedy rung reached" true (r.Sim.Metrics.fallback_depth_max = 2);
  assert_conserved "zero budget" cluster sched

let test_e2e_zero_budget_mixed_conserves () =
  Failpt.deactivate ();
  (* With INC flavors in the mix, undecided groups legitimately wait for
     a healthy flow round that never comes — the run must still
     terminate with the ledgers clean, just not fully drained. *)
  let resilience =
    Hire.Hire_scheduler.resilience ~budget:(Budget.make ~max_wall_s:0.0 ()) ()
  in
  let cluster, sched, r = run_resilient ~resilience () in
  Alcotest.(check bool) "degraded rounds observed" true (r.Sim.Metrics.degraded_rounds > 0);
  assert_conserved ~drained:false "zero budget mixed" cluster sched

let test_e2e_no_policy_reports_nothing () =
  Failpt.deactivate ();
  let cluster, sched, r = run_resilient () in
  Alcotest.(check int) "no degraded rounds" 0 r.Sim.Metrics.degraded_rounds;
  Alcotest.(check int) "no fallbacks" 0 r.Sim.Metrics.fallback_rounds;
  Alcotest.(check int) "no guard trips" 0 r.Sim.Metrics.guard_trips;
  assert_conserved "no policy" cluster sched

let test_e2e_chaos_guard_trips_and_recovers () =
  with_solver_faults 1234 @@ fun () ->
  (* Guard every solve; flow.corrupt flips ~half the guarded solutions,
     and the chain must absorb every trip. *)
  let resilience = Hire.Hire_scheduler.resilience ~guard_every:1 () in
  let cluster, sched, r = run_resilient ~resilience () in
  Alcotest.(check bool) "guard tripped" true (r.Sim.Metrics.guard_trips > 0);
  Alcotest.(check bool) "work still placed" true (r.Sim.Metrics.tgs_satisfied > 0);
  assert_conserved "chaos+guard" cluster sched

(* Randomized: any budget x any fault plan -> the run terminates with
   capacity conserved and never double-places.  Full drain is only
   required with no budget: under a budget the greedy rung cannot make
   flavor decisions, so INC jobs may legitimately stay queued. *)
let prop_budgets_and_faults_conserve =
  QCheck.Test.make ~name:"degraded placements conserve capacity (budgets x faults)"
    ~count:6
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 3))
    (fun (seed, budget_kind) ->
      Failpt.deactivate ();
      let budget =
        match budget_kind with
        | 0 -> Some (Budget.make ~max_wall_s:0.0 ())
        | 1 -> Some (Budget.make ~max_steps:5 ())
        | 2 -> Some (Budget.make ~max_wall_s:0.0005 ~max_steps:50 ())
        | _ -> None
      in
      let resilience = Hire.Hire_scheduler.resilience ?budget ~guard_every:3 () in
      let rng = Rng.create seed in
      let cluster = make_cluster ~seed:(seed land 0xFFFF) () in
      let topo = Sim.Cluster.topo cluster in
      let ids = Transformer.Id_gen.create () in
      let arrivals = arrivals_fixture rng ids in
      let faults =
        Faults.Plan.generate
          {
            Faults.Plan.server_mtbf = 25.0;
            server_mttr = 3.0;
            switch_mtbf = 40.0;
            switch_mttr = 3.0;
            inc_weight = 1.0;
          }
          (Rng.create (seed + 7919))
          ~servers:(Topology.Fat_tree.servers topo)
          ~switches:(Topology.Fat_tree.switches topo) ~horizon:30.0
      in
      let fault_policy = Faults.Policy.create ~max_retries:2 ~backoff:0.5 () in
      let sched = Schedulers.Registry.create ~resilience "hire" ~seed:17 cluster in
      let result = Sim.Simulator.run ~faults ~fault_policy cluster sched arrivals in
      let r = result.Sim.Simulator.report in
      let conserved =
        Vec.is_zero (Sim.Cluster.switch_used_total cluster)
        && Array.for_all
             (fun s ->
               Vec.equal (Sim.Cluster.server_available cluster s)
                 (Sim.Cluster.server_capacity cluster))
             (Topology.Fat_tree.servers topo)
      in
      let drained =
        budget <> None || not (sched.Sim.Scheduler_intf.pending ())
      in
      let sane = r.Sim.Metrics.tgs_satisfied + r.Sim.Metrics.tgs_cancelled
                 <= r.Sim.Metrics.tgs_total in
      if not (conserved && drained && sane) then
        QCheck.Test.fail_reportf "conserved=%b drained=%b sane=%b (seed %d kind %d)"
          conserved drained sane seed budget_kind
      else true)

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)
(* ------------------------------------------------------------------ *)

let test_cell_key_resilience_axis () =
  let base = Harness.Experiment.default in
  let with_budget =
    {
      base with
      Harness.Experiment.resilience =
        Some
          (Hire.Hire_scheduler.resilience ~budget:(Budget.make ~max_wall_s:0.01 ()) ());
    }
  in
  let with_guard =
    {
      base with
      Harness.Experiment.resilience =
        Some (Hire.Hire_scheduler.resilience ~guard_every:5 ());
    }
  in
  Alcotest.(check bool) "stable" true
    (Harness.Experiment.cell_key base = Harness.Experiment.cell_key base);
  Alcotest.(check bool) "budget changes key" true
    (Harness.Experiment.cell_key base <> Harness.Experiment.cell_key with_budget);
  Alcotest.(check bool) "guard changes key" true
    (Harness.Experiment.cell_key with_budget <> Harness.Experiment.cell_key with_guard)

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "resilience"
    [
      ( "budget-ssp",
        [
          quick "step budget salvages a min-cost prefix" test_ssp_step_budget_partial;
          quick "unlimited budget is exact" test_ssp_unlimited_budget_identical;
          quick "zero wall budget degrades cleanly" test_ssp_wall_zero;
        ] );
      ( "budget-cost-scaling",
        [
          quick "abort resets to the zero flow" test_cost_scaling_abort_resets_flow;
          quick "unlimited budget is exact" test_cost_scaling_unlimited_budget_identical;
        ] );
      ( "budget-state",
        [
          quick "forced exhaustion is sticky" test_budget_forced_exhaustion_sticky;
          quick "injected delay ages the wall cap" test_budget_injected_delay_ages_wall;
        ] );
      ( "chaos",
        [
          quick "corruption is caught by Verify.check" test_chaos_corruption_caught_by_verify;
          quick "solve sites touch budgeted solves only" test_solve_sites_budgeted_only;
          quick "inert when off" test_chaos_off_is_inert;
        ] );
      ( "guard",
        [
          quick "accepts valid placements" test_guard_accepts_valid_placements;
          quick "machine overuse" test_guard_machine_overuse;
          quick "group overplace" test_guard_group_overplace;
          quick "server overcommit" test_guard_server_overcommit;
          quick "flow corruption flagged" test_guard_flow_check_flags_corruption;
        ] );
      ( "end-to-end",
        [
          quick "zero budget: degrade, salvage, complete"
            test_e2e_zero_budget_degrades_and_completes;
          quick "zero budget, mixed arrivals: conserves without draining"
            test_e2e_zero_budget_mixed_conserves;
          quick "no policy: no resilience accounting" test_e2e_no_policy_reports_nothing;
          quick "chaos trips the guard, chain recovers"
            test_e2e_chaos_guard_trips_and_recovers;
        ]
        @ qt [ prop_budgets_and_faults_conserve ] );
      ("cache", [ quick "resilience feeds the cell key" test_cell_key_resilience_axis ]);
    ]
