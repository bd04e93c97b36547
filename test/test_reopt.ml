(* Tests for the re-optimizing solve path (docs/PERFORMANCE.md): the
   solver's agreement with the full-settle reference SSP
   (test/ssp_reference.ml) on random graphs and on HIRE flow networks
   patched over several rounds, its per-arc flows on those networks
   against the full-scan reference, touched-arc flow-reset exactness, and the
   end-to-end property that a run with [reopt = true] (the default) is
   placement-for-placement identical to cold full resets
   ([reopt = false]) — with and without fault injection, on random k=4
   cells and one fixed k=8 cell. *)

module Graph = Flow.Graph
module Mcmf = Flow.Mcmf
module Comp_store = Hire.Comp_store
module Vec = Prelude.Vec
module Rng = Prelude.Rng

let store = Comp_store.default ()

(* ------------------------------------------------------------------ *)
(* Solver vs the full-settle reference                                 *)
(* ------------------------------------------------------------------ *)

(* Random balanced min-cost-flow instance.  [cost_lo] below 0 exercises
   the SPFA bootstrap. *)
let random_instance rng ~n ~extra_arcs ~cost_lo ~cost_hi =
  let g = Graph.create () in
  let first = Graph.add_nodes g n in
  (* A random spanning chain keeps most of the supply routable. *)
  for v = first + 1 to first + n - 1 do
    ignore
      (Graph.add_arc g ~src:(v - 1) ~dst:v
         ~cap:(Rng.int_in rng 1 10)
         ~cost:(Rng.int_in rng (max 0 cost_lo) cost_hi))
  done;
  for _ = 1 to extra_arcs do
    let a = Rng.int_in rng 0 (n - 1) and b = Rng.int_in rng 0 (n - 1) in
    if a <> b then begin
      (* When negative costs are in play, keep every arc pointing
         forward along the chain: the graph stays a DAG, so no negative
         cycle can form and the SPFA bootstrap terminates. *)
      let src, dst = if cost_lo < 0 && a > b then (b, a) else (a, b) in
      ignore
        (Graph.add_arc g ~src ~dst
           ~cap:(Rng.int_in rng 1 8)
           ~cost:(Rng.int_in rng cost_lo cost_hi))
    end
  done;
  let total = ref 0 in
  for _ = 1 to max 1 (n / 3) do
    let s = Rng.int_in rng 0 (n / 2) in
    let amt = Rng.int_in rng 1 4 in
    Graph.add_supply g s amt;
    total := !total + amt
  done;
  Graph.add_supply g (n - 1) (- !total);
  g

let check_same_objective (rc : Ssp_reference.outcome) rf =
  Alcotest.(check int) "same shipped" rc.shipped rf.Mcmf.shipped;
  Alcotest.(check int) "same objective" rc.total_cost rf.Mcmf.total_cost;
  Alcotest.(check int) "same unshipped" rc.unshipped rf.Mcmf.unshipped

(* HIRE-shaped instances: a k=4 cluster with INC jobs for every catalogue
   service plus server-only jobs, built through a persistent re-optimizing
   builder over several rounds.  Between rounds the ledgers are charged
   (cost churn, patched build) and a switch fails and recovers
   (structural churn, full rebuild).  [check ~round ~scratch g] gets the
   builder's own graph and one scratch shared by every round, as a HIRE
   round solves them. *)
let iter_hire_network_rounds check =
  let cluster =
    Sim.Cluster.create ~inc_capable_fraction:0.5 ~k:4 ~setup:Sim.Cluster.Homogeneous
      ~services:(Array.to_list (Comp_store.service_names store))
      (Rng.create 3)
  in
  let view = Sim.Cluster.view cluster in
  let topo = view.Hire.View.topo in
  let census = Hire.Locality.Task_census.create topo in
  let ids = Hire.Transformer.Id_gen.create () in
  let rng = Rng.create 5 in
  let composite ~template ~n ~alternatives =
    {
      Hire.Comp_req.comp_id = "c0";
      template;
      base = { Hire.Comp_req.instances = n; cpu = 2.0; mem = 4.0; duration = 30.0 };
      inc_alternatives = alternatives;
    }
  in
  let jobs =
    Array.to_list (Comp_store.service_names store)
    |> List.concat_map (fun service ->
           let template = Option.get (Comp_store.template_of_service store service) in
           [
             composite ~template ~n:4 ~alternatives:[ service ];
             composite ~template:"server" ~n:3 ~alternatives:[];
           ])
    |> List.mapi (fun job_id c ->
           let req =
             { Hire.Comp_req.priority = Workload.Job.Batch; composites = [ c ]; connections = [] }
           in
           Hire.Pending.of_poly
             (Hire.Transformer.transform store ids rng ~job_id ~arrival:(float_of_int job_id) req))
  in
  let builder = Hire.Flow_network.create_builder ~reopt:true () in
  let servers = Topology.Fat_tree.servers topo in
  let switch = (Topology.Fat_tree.switches topo).(0) in
  let demand = Vec.scale 0.2 (Sim.Cluster.server_capacity cluster) in
  let scratch = Mcmf.scratch () in
  for round = 0 to 5 do
    let now = 20.0 +. float_of_int round in
    let net =
      Hire.Flow_network.build ~builder view census ~jobs ~now
        ~params:Hire.Cost_model.default_params
    in
    (* Round 0 is cold, and the switch failing after round 2 and
       recovering after round 3 forces full rebuilds in rounds 3 and 4;
       every other round patches. *)
    let patched = not (Hire.Flow_network.stats net).Hire.Flow_network.full in
    Alcotest.(check bool)
      (Printf.sprintf "round %d build path" round)
      (round > 0 && round <> 3 && round <> 4)
      patched;
    check ~round ~scratch (Hire.Flow_network.graph net);
    Sim.Cluster.place_server_task cluster ~server:servers.(round) ~demand;
    if round = 2 then Sim.Cluster.fail_node cluster ~time:now switch;
    if round = 3 then ignore (Sim.Cluster.recover_node cluster switch)
  done

let test_fast_equals_classic () =
  let rng = Rng.create 11 in
  for case = 1 to 40 do
    let cost_lo = if case mod 5 = 0 then -6 else 0 in
    let g1 = random_instance rng ~n:(5 + (case mod 20)) ~extra_arcs:(3 * case mod 50)
        ~cost_lo ~cost_hi:12 in
    let g2 = Graph.copy g1 in
    check_same_objective (Ssp_reference.classic g1) (Mcmf.solve g2)
  done;
  (* The full-settle reference solves a copy taken before the solver. *)
  iter_hire_network_rounds (fun ~round ~scratch g ->
      let rc = Ssp_reference.classic (Graph.copy g) in
      let rf = Mcmf.solve ~scratch g in
      Alcotest.(check bool) (Printf.sprintf "round %d ships tasks" round) true (rf.Mcmf.shipped > 0);
      check_same_objective rc rf)

(* On the same patched and rebuilt rounds, the solver and the full-scan
   reference (which breaks ties as the solver must) agree on every
   arc's flow, not only on the objective. *)
let test_hire_rounds_equal_full_scan () =
  iter_hire_network_rounds (fun ~round ~scratch g ->
      let ref_g = Graph.copy g in
      let rr = Ssp_reference.full_scan ref_g in
      let rf = Mcmf.solve ~scratch g in
      let label what = Printf.sprintf "round %d %s" round what in
      Alcotest.(check bool) (label "ships tasks") true (rf.Mcmf.shipped > 0);
      Alcotest.(check int) (label "same shipped") rr.shipped rf.Mcmf.shipped;
      Alcotest.(check int) (label "same augmentations") rr.augmentations rf.Mcmf.augmentations;
      Graph.iter_arcs g (fun a ->
          Alcotest.(check int) (label "same per-arc flow") (Graph.flow ref_g a) (Graph.flow g a)))

(* ------------------------------------------------------------------ *)
(* Touched-arc flow reset                                              *)
(* ------------------------------------------------------------------ *)

let test_reset_touched_exact () =
  let rng = Rng.create 31 in
  for case = 1 to 15 do
    let g = random_instance rng ~n:(5 + case) ~extra_arcs:(2 * case) ~cost_lo:0 ~cost_hi:7 in
    Graph.set_flow_tracking g true;
    ignore (Mcmf.solve g);
    (* A second solve on the already-consumed residual network dirties
       more pairs (including reverse pushes); the record must dedupe and
       still restore everything. *)
    ignore (Mcmf.solve g);
    let restored = Graph.reset_touched_flows g in
    Alcotest.(check bool) "restored some pairs" true (restored >= 0);
    Graph.iter_arcs g (fun a ->
        Alcotest.(check int) "flow zero" 0 (Graph.flow g a);
        Alcotest.(check int) "residual = capacity" (Graph.capacity g a)
          (Graph.residual_cap g a))
  done;
  (* corrupt_flow is also a tracked mutation: injected corruption on the
     persistent graph must not survive the reset. *)
  let g = random_instance (Rng.create 5) ~n:6 ~extra_arcs:6 ~cost_lo:0 ~cost_hi:5 in
  Graph.set_flow_tracking g true;
  let some_arc = ref (-1) in
  Graph.iter_arcs g (fun a -> if !some_arc < 0 then some_arc := a);
  Graph.corrupt_flow g !some_arc 3;
  ignore (Graph.reset_touched_flows g);
  Alcotest.(check int) "corruption undone" 0 (Graph.flow g !some_arc);
  (* Tracking off -> the call falls back to the full sweep. *)
  Graph.set_flow_tracking g false;
  ignore (Mcmf.solve g);
  let swept = Graph.reset_touched_flows g in
  Alcotest.(check int) "fallback sweeps the arena" (Graph.arc_count g) swept

(* ------------------------------------------------------------------ *)
(* End-to-end property: reopt == cold                                  *)
(* ------------------------------------------------------------------ *)

(* One full simulation cell; same structure as test_incremental's, with
   the reopt flag as the axis under test (incremental stays on — reopt
   is meaningless without the persistent builder). *)
let run_cell ~reopt ~k ~seed ~mu ~faults_on ~horizon =
  let rng = Rng.create seed in
  let trace_rng = Rng.split rng in
  let scenario_rng = Rng.split rng in
  let cluster_rng = Rng.split rng in
  let fault_rng = Rng.split rng in
  let services = Array.to_list (Comp_store.service_names store) in
  let cluster =
    Sim.Cluster.create ~inc_capable_fraction:0.5 ~k ~setup:Sim.Cluster.Homogeneous
      ~services cluster_rng
  in
  let trace_config =
    Workload.Trace_gen.scaled_rate
      ~n_servers:(Sim.Cluster.n_servers cluster)
      ~target_utilization:0.8 Workload.Trace_gen.default
  in
  let trace = Workload.Trace_gen.generate trace_config trace_rng ~horizon in
  let scenario = Sim.Scenario.build store scenario_rng ~mu trace in
  let sched = Schedulers.Registry.create ~reopt "hire" ~seed:17 cluster in
  let log = Buffer.create 1024 in
  let wrapped =
    {
      sched with
      Sim.Scheduler_intf.round =
        (fun ~time ->
          let r = sched.Sim.Scheduler_intf.round ~time in
          Buffer.add_string log (Printf.sprintf "t=%.6f" time);
          List.iter
            (fun (p : Sim.Scheduler_intf.placement) ->
              Buffer.add_string log
                (Printf.sprintf " %d->%d" p.tg.Hire.Poly_req.tg_id p.machine))
            r.Sim.Scheduler_intf.placements;
          List.iter
            (fun (tg : Hire.Poly_req.task_group) ->
              Buffer.add_string log (Printf.sprintf " !%d" tg.Hire.Poly_req.tg_id))
            r.Sim.Scheduler_intf.cancelled;
          Buffer.add_char log '\n';
          r);
    }
  in
  let faults, fault_policy =
    if not faults_on then (None, None)
    else begin
      let topo = Sim.Cluster.topo cluster in
      let sharing = Sim.Cluster.sharing cluster in
      let plan =
        Faults.Plan.generate
          { Faults.Plan.default_config with server_mtbf = 80.0; switch_mtbf = 80.0 }
          fault_rng
          ~inc_capable:(fun s -> Hire.Sharing.supported_services sharing s <> [])
          ~servers:(Topology.Fat_tree.servers topo)
          ~switches:(Topology.Fat_tree.switches topo)
          ~horizon
      in
      (Some plan, Some (Faults.Policy.create ~max_retries:2 ()))
    end
  in
  let result =
    Sim.Simulator.run ?faults ?fault_policy cluster wrapped scenario.Sim.Scenario.arrivals
  in
  let ledger =
    String.concat ";"
      (Array.to_list
         (Array.map
            (fun s -> Vec.to_string (Sim.Cluster.server_available cluster s))
            (Topology.Fat_tree.servers (Sim.Cluster.topo cluster))))
  in
  (Buffer.contents log, ledger, result.Sim.Simulator.report)

let report_summary (r : Sim.Metrics.report) =
  Printf.sprintf "jobs=%d inc=%d/%d tgs=%d/%d unserved=%d rounds=%d detour=%.6f"
    r.Sim.Metrics.jobs_total r.Sim.Metrics.inc_jobs_served r.Sim.Metrics.inc_jobs_total
    r.Sim.Metrics.tgs_satisfied r.Sim.Metrics.tgs_total r.Sim.Metrics.inc_tgs_unserved
    r.Sim.Metrics.rounds r.Sim.Metrics.detour_mean

(* [None] when the re-optimizing run matches the cold-reset run on the
   placement log, the final ledgers and the report; otherwise what
   diverged. *)
let divergence ~k ~seed ~mu ~faults_on ~horizon =
  let log_c, ledger_c, rep_c = run_cell ~reopt:false ~k ~seed ~mu ~faults_on ~horizon in
  let log_r, ledger_r, rep_r = run_cell ~reopt:true ~k ~seed ~mu ~faults_on ~horizon in
  let cell = Printf.sprintf "k=%d seed=%d mu=%.3f faults=%b" k seed mu faults_on in
  if not (String.equal log_c log_r) then Some ("placement logs diverge (" ^ cell ^ ")")
  else if not (String.equal ledger_c ledger_r) then Some ("final ledgers diverge (" ^ cell ^ ")")
  else if not (String.equal (report_summary rep_c) (report_summary rep_r)) then
    Some
      (Printf.sprintf "reports diverge (%s): %s vs %s" cell (report_summary rep_c)
         (report_summary rep_r))
  else None

let prop_reopt_identical =
  QCheck.Test.make ~name:"reopt solves identical to cold resets (e2e)" ~count:8
    QCheck.(triple (int_range 0 1_000_000) (float_range 0.0 1.0) bool)
    (fun (seed, mu, faults_on) ->
      match divergence ~k:4 ~seed ~mu ~faults_on ~horizon:60.0 with
      | Some msg -> QCheck.Test.fail_report msg
      | None -> true)

(* The paper's reduced cell size: one fixed short-horizon k=8 input. *)
let test_reopt_identical_k8 () =
  match divergence ~k:8 ~seed:8 ~mu:0.5 ~faults_on:true ~horizon:60.0 with
  | Some msg -> Alcotest.fail msg
  | None -> ()

let test_cell_key_escape_hatch () =
  let base = Harness.Experiment.default in
  Alcotest.(check string)
    "reopt default keeps the historical key"
    (Harness.Experiment.cell_key base)
    (Harness.Experiment.cell_key { base with reopt = true });
  Alcotest.(check bool)
    "escape hatch gets its own cells" false
    (String.equal
       (Harness.Experiment.cell_key base)
       (Harness.Experiment.cell_key { base with reopt = false }));
  Alcotest.(check bool)
    "describe flags the escape hatch" true
    (let d = Harness.Experiment.describe { base with reopt = false } in
     let needle = "-reopt" in
     let n = String.length d and m = String.length needle in
     let rec scan i = i + m <= n && (String.sub d i m = needle || scan (i + 1)) in
     scan 0)

let test_spec_blob_roundtrip () =
  let base = Harness.Experiment.default in
  List.iter
    (fun spec ->
      let back = Harness.Experiment.spec_of_blob (Harness.Experiment.spec_to_blob spec) in
      Alcotest.(check bool) "spec round-trips" true (back = spec))
    [ base; { base with reopt = false }; { base with reopt = false; incremental = false } ]

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "reopt"
    [
      ("solver", [ Alcotest.test_case "fast equals classic" `Quick test_fast_equals_classic ]);
      ( "hire-network",
        [
          Alcotest.test_case "patched rounds equal full scan" `Quick
            test_hire_rounds_equal_full_scan;
        ] );
      ( "graph",
        [ Alcotest.test_case "touched reset exact" `Quick test_reset_touched_exact ] );
      ( "end-to-end",
        qt [ prop_reopt_identical ]
        @ [
            Alcotest.test_case "reopt identical to cold resets at k=8" `Quick
              test_reopt_identical_k8;
            Alcotest.test_case "cell_key escape hatch" `Quick test_cell_key_escape_hatch;
            Alcotest.test_case "spec blob round-trip" `Quick test_spec_blob_roundtrip;
          ] );
    ]
