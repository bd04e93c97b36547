(* Tests for incremental flow-network maintenance (docs/PERFORMANCE.md):
   the Graph in-place patching primitives (mark/release, set_cost/set_cap,
   negative-cost tracking, flow reset), solver scratch exactness,
   builder-vs-fresh network identity under cost, structural, and
   liveness churn at k=4 and k=8, and the end-to-end property that a
   simulation run with [incremental = true] is placement-for-placement
   identical to the full-rebuild path — with and without fault
   injection, on random k=4 cells and one fixed k=8 cell. *)

module Graph = Flow.Graph
module Mcmf = Flow.Mcmf
module Flow_network = Hire.Flow_network
module Pending = Hire.Pending
module Poly_req = Hire.Poly_req
module Comp_store = Hire.Comp_store
module Comp_req = Hire.Comp_req
module Transformer = Hire.Transformer
module Cost_model = Hire.Cost_model
module Vec = Prelude.Vec
module Rng = Prelude.Rng

let store = Comp_store.default ()

(* ------------------------------------------------------------------ *)
(* Graph patching primitives                                           *)
(* ------------------------------------------------------------------ *)

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
  (g, s, t)

let test_mark_release_roundtrip () =
  let g, s, t = fan_graph 3 in
  let n0 = Graph.node_count g and m0 = Graph.arc_count g in
  let out0 = Graph.fold_out g s 0 (fun acc _ -> acc + 1) in
  let mk = Graph.mark g in
  (* Suffix: a node with arcs into *prefix* nodes, so the prefix head
     lists and supplies are disturbed and must be restored. *)
  let v = Graph.add_node g in
  ignore (Graph.add_arc g ~src:v ~dst:s ~cap:5 ~cost:7);
  ignore (Graph.add_arc g ~src:v ~dst:t ~cap:5 ~cost:(-2));
  Graph.add_supply g s 10;
  Alcotest.(check bool) "suffix went negative" true (Graph.has_negative_cost g);
  Graph.release g mk;
  Alcotest.(check int) "node count restored" n0 (Graph.node_count g);
  Alcotest.(check int) "arc count restored" m0 (Graph.arc_count g);
  Alcotest.(check int) "supply restored" 3 (Graph.supply g s);
  Alcotest.(check int) "head list restored" out0
    (Graph.fold_out g s 0 (fun acc _ -> acc + 1));
  Alcotest.(check bool) "negative-cost counter restored" false (Graph.has_negative_cost g);
  (* The graph is usable after release: the solve sees only the prefix. *)
  let r = Mcmf.solve g in
  Alcotest.(check int) "prefix solves" 3 r.Mcmf.shipped

let test_release_behind_mark_rejected () =
  let g, _, _ = fan_graph 2 in
  let mk = Graph.mark g in
  let g2 = g in
  Graph.release g2 mk;
  (* Releasing to a mark that is *ahead* of the graph must fail: capture
     a later mark, rewind to an earlier one, then try the later. *)
  let early = Graph.mark g in
  ignore (Graph.add_node g);
  let late = Graph.mark g in
  Graph.release g early;
  Alcotest.check_raises "mark ahead of graph"
    (Invalid_argument "Graph.release: mark does not precede the current state")
    (fun () -> Graph.release g late)

let test_set_cost_tracks_negative () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let arc = Graph.add_arc g ~src:a ~dst:b ~cap:1 ~cost:5 in
  Alcotest.(check bool) "non-negative" false (Graph.has_negative_cost g);
  Graph.set_cost g arc (-3);
  Alcotest.(check bool) "negative after set" true (Graph.has_negative_cost g);
  Alcotest.(check int) "cost rewritten" (-3) (Graph.cost g arc);
  Alcotest.(check int) "twin negated" 3 (Graph.cost g (Graph.rev arc));
  Graph.set_cost g arc 2;
  Alcotest.(check bool) "non-negative again" false (Graph.has_negative_cost g);
  Graph.set_cost g arc 2;
  Alcotest.(check bool) "no-op set keeps counter" false (Graph.has_negative_cost g)

let test_set_cap_resets_pair () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let arc = Graph.add_arc g ~src:a ~dst:b ~cap:4 ~cost:1 in
  Graph.push g arc 3;
  Alcotest.(check int) "flow on" 3 (Graph.flow g arc);
  Graph.set_cap g arc 9;
  Alcotest.(check int) "capacity rewritten" 9 (Graph.capacity g arc);
  Alcotest.(check int) "flow zeroed" 0 (Graph.flow g arc);
  Alcotest.(check int) "residual = new cap" 9 (Graph.residual_cap g arc)

let test_reset_flows_restores_capacities () =
  let g, _, _ = fan_graph 4 in
  ignore (Mcmf.solve g);
  let consumed = ref 0 in
  Graph.iter_arcs g (fun a -> consumed := !consumed + Graph.flow g a);
  Alcotest.(check bool) "solve consumed capacity" true (!consumed > 0);
  Graph.reset_flows g;
  Graph.iter_arcs g (fun a ->
      Alcotest.(check int) "flow zero" 0 (Graph.flow g a);
      Alcotest.(check int) "residual = original cap" (Graph.capacity g a)
        (Graph.residual_cap g a))

(* ------------------------------------------------------------------ *)
(* Scratch reuse                                                       *)
(* ------------------------------------------------------------------ *)

let test_scratch_solve_identical () =
  let scratch = Mcmf.scratch () in
  for n = 2 to 6 do
    let g1, _, _ = fan_graph n in
    let g2, _, _ = fan_graph n in
    let r1 = Mcmf.solve g1 in
    let r2 = Mcmf.solve ~scratch g2 in
    Alcotest.(check int) "same shipped" r1.Mcmf.shipped r2.Mcmf.shipped;
    Alcotest.(check int) "same cost" r1.Mcmf.total_cost r2.Mcmf.total_cost;
    (* Per-arc flows identical, not just the objective. *)
    Graph.iter_arcs g1 (fun a ->
        Alcotest.(check int) "same flow" (Graph.flow g1 a) (Graph.flow g2 a))
  done

(* ------------------------------------------------------------------ *)
(* Builder-vs-fresh network identity                                   *)
(* ------------------------------------------------------------------ *)

let make_cluster ?(k = 4) ?(fraction = 1.0) ?(seed = 3) () =
  Sim.Cluster.create ~inc_capable_fraction:fraction ~k ~setup:Sim.Cluster.Homogeneous
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

let inc_req ?(service = "netchain") ?(n = 4) () =
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

let pending_jobs () =
  let ids = Transformer.Id_gen.create () in
  let rng = Rng.create 5 in
  List.init 4 (fun i ->
      let req = if i mod 2 = 0 then inc_req () else server_only_req 3 in
      Pending.of_poly
        (Transformer.transform store ids rng ~job_id:i ~arrival:(float_of_int i) req))

let arcs_of g =
  let acc = ref [] in
  Graph.iter_arcs g (fun a ->
      acc := (Graph.src g a, Graph.dst g a, Graph.capacity g a, Graph.cost g a) :: !acc);
  List.rev !acc

let check_identical_networks name na nb =
  let ga = Flow_network.graph na and gb = Flow_network.graph nb in
  Alcotest.(check int) (name ^ ": node count") (Graph.node_count gb) (Graph.node_count ga);
  Alcotest.(check int) (name ^ ": arc count") (Graph.arc_count gb) (Graph.arc_count ga);
  Alcotest.(check bool) (name ^ ": arcs identical") true (arcs_of ga = arcs_of gb);
  for v = 0 to Graph.node_count ga - 1 do
    Alcotest.(check int) (name ^ ": supply") (Graph.supply gb v) (Graph.supply ga v)
  done;
  let oa = Flow_network.solve_and_extract na and ob = Flow_network.solve_and_extract nb in
  Alcotest.(check bool)
    (name ^ ": same placements")
    true
    (oa.Flow_network.placements = ob.Flow_network.placements);
  Alcotest.(check int)
    (name ^ ": same objective")
    ob.Flow_network.solver.Mcmf.total_cost oa.Flow_network.solver.Mcmf.total_cost

let builder_identity_under_churn ~k =
  let cluster = make_cluster ~k () in
  let view = Sim.Cluster.view cluster in
  let census = Hire.Locality.Task_census.create view.Hire.View.topo in
  let jobs = pending_jobs () in
  let params = Cost_model.default_params in
  let builder = Flow_network.create_builder () in
  let servers = Topology.Fat_tree.servers view.Hire.View.topo in
  let demand = Vec.scale 0.1 (Sim.Cluster.server_capacity cluster) in
  let build_both name =
    (* The incremental build runs first: it consumes the dirty set the
       fresh build does not need. *)
    let ni = Flow_network.build ~builder view census ~jobs ~now:10.0 ~params in
    let nf = Flow_network.build view census ~jobs ~now:10.0 ~params in
    check_identical_networks name ni nf
  in
  build_both "cold builder";
  (* Cost churn: ledger charges mark servers dirty; the next build
     patches in place. *)
  Sim.Cluster.place_server_task cluster ~server:servers.(0) ~demand;
  Sim.Cluster.place_server_task cluster ~server:servers.(3) ~demand;
  build_both "after charges";
  Alcotest.(check bool) "patched, not rebuilt" false
    (Flow_network.stats (Flow_network.build ~builder view census ~jobs ~now:10.0 ~params))
      .Flow_network.full;
  Sim.Cluster.release_server_task cluster ~server:servers.(0) ~demand;
  build_both "after release";
  (* Structural churn: liveness flips force a full prefix rebuild. *)
  Sim.Cluster.fail_node cluster ~time:11.0 servers.(1);
  let ni = Flow_network.build ~builder view census ~jobs ~now:12.0 ~params in
  Alcotest.(check bool) "structural -> full rebuild" true (Flow_network.stats ni).Flow_network.full;
  let nf = Flow_network.build view census ~jobs ~now:12.0 ~params in
  check_identical_networks "after server failure" ni nf;
  ignore (Sim.Cluster.recover_node cluster servers.(1));
  build_both "after recovery"

let test_builder_identity_under_churn () =
  List.iter (fun k -> builder_identity_under_churn ~k) [ 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Golden network digests                                              *)
(* ------------------------------------------------------------------ *)

(* MD5 of everything the solver reads from a built network: every
   arc's (src, dst, cap, cost) in creation order and every node's
   supply.  The expected values below were recorded from the
   list-based shortcut pricing that preceded the allocation-free
   rewrite, and the two cut cases from the record-list trim
   ([Array.sort] over records) that preceded the int-buffer selection;
   any change to them is a change to the networks HIRE builds. *)
let network_digest net =
  let g = Flow_network.graph net in
  let buf = Buffer.create 4096 in
  Graph.iter_arcs g (fun a ->
      Printf.bprintf buf "%d,%d,%d,%d;" (Graph.src g a) (Graph.dst g a) (Graph.capacity g a)
        (Graph.cost g a));
  for v = 0 to Graph.node_count g - 1 do
    Printf.bprintf buf "%d:%d;" v (Graph.supply g v)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Two INC jobs ([service]) interleaved with server-only jobs. *)
let golden_jobs ?(service = "netchain") () =
  let ids = Transformer.Id_gen.create () in
  let rng = Rng.create 11 in
  List.init 4 (fun i ->
      let req = if i mod 2 = 0 then inc_req ~service ~n:(3 + i) () else server_only_req 3 in
      Pending.of_poly
        (Transformer.transform store ids rng ~job_id:i ~arrival:(float_of_int i) req))

let network_tgs jobs =
  List.concat_map
    (fun (j : Pending.job_state) ->
      List.filter (fun (ts : Pending.tg_state) -> Poly_req.is_network ts.tg)
        (Array.to_list j.tg_states))
    jobs

let server_tgs jobs =
  List.concat_map
    (fun (j : Pending.job_state) ->
      List.filter (fun (ts : Pending.tg_state) -> not (Poly_req.is_network ts.tg))
        (Array.to_list j.tg_states))
    jobs

let inc_switches cluster =
  let sharing = Sim.Cluster.sharing cluster in
  List.filter
    (fun s -> Hire.Sharing.supported_services sharing s <> [])
    (Array.to_list (Topology.Fat_tree.switches (Sim.Cluster.topo cluster)))

(* Charge one instance of [ts]'s service on each of [switches] where it
   fits, as a running task of the group would. *)
let charge_switches cluster (ts : Pending.tg_state) switches =
  List.iter
    (fun sw ->
      try ignore (Sim.Cluster.place_network_task cluster ~switch:sw ~tg:ts.tg ~shared:true)
      with Invalid_argument _ -> ())
    switches

let golden_cases () =
  let params = Cost_model.default_params in
  let build ?(params = params) ?census cluster jobs =
    let view = Sim.Cluster.view cluster in
    let census =
      match census with
      | Some c -> c
      | None -> Hire.Locality.Task_census.create view.Hire.View.topo
    in
    Flow_network.build view census ~jobs ~now:10.0 ~params
  in
  let sharing_unaware () =
    let cluster = make_cluster ~fraction:0.75 () in
    let jobs = golden_jobs () in
    let sws = inc_switches cluster in
    charge_switches cluster (List.hd (network_tgs jobs)) [ List.nth sws 0; List.nth sws 2 ];
    build ~params:{ params with Cost_model.sharing_aware = false } cluster jobs
  in
  let related_placed () =
    let cluster = make_cluster ~fraction:0.75 () in
    let topo = Sim.Cluster.topo cluster in
    let census = Hire.Locality.Task_census.create topo in
    let jobs = golden_jobs () in
    let sws = inc_switches cluster in
    let ntg = List.hd (network_tgs jobs) in
    let placed = [ List.nth sws 1; List.nth sws 4 ] in
    charge_switches cluster ntg placed;
    List.iter
      (fun sw ->
        Hire.Locality.Task_census.add census ~tg_id:ntg.tg.Poly_req.tg_id ~machine:sw;
        ntg.placed_on <- sw :: ntg.placed_on)
      placed;
    let stg = List.hd (server_tgs jobs) in
    let servers = Topology.Fat_tree.servers topo in
    List.iter
      (fun s ->
        Sim.Cluster.place_server_task cluster ~server:s ~demand:stg.tg.Poly_req.demand;
        Hire.Locality.Task_census.add census ~tg_id:stg.tg.Poly_req.tg_id ~machine:s)
      [ servers.(0); servers.(5) ];
    build ~census cluster jobs
  in
  let single_tor () =
    let cluster = make_cluster ~fraction:0.75 () in
    let jobs = golden_jobs ~service:"netcache" () in
    let sws = inc_switches cluster in
    charge_switches cluster (List.hd (network_tgs jobs)) [ List.nth sws 0 ];
    build cluster jobs
  in
  let dead_switch () =
    let cluster = make_cluster () in
    let jobs = golden_jobs () in
    let sws = inc_switches cluster in
    charge_switches cluster (List.hd (network_tgs jobs)) [ List.nth sws 3 ];
    Sim.Cluster.fail_node cluster ~time:5.0 (List.nth sws 0);
    Sim.Cluster.fail_node cluster ~time:5.0 (List.nth sws 6);
    build cluster jobs
  in
  let patched () =
    let cluster = make_cluster ~fraction:0.75 () in
    let view = Sim.Cluster.view cluster in
    let census = Hire.Locality.Task_census.create view.Hire.View.topo in
    let jobs = golden_jobs () in
    let builder = Flow_network.create_builder () in
    ignore (Flow_network.build ~builder view census ~jobs ~now:10.0 ~params);
    let sws = inc_switches cluster in
    let ntgs = network_tgs jobs in
    charge_switches cluster (List.hd ntgs) [ List.nth sws 2; List.nth sws 3 ];
    charge_switches cluster (List.nth ntgs 1) [ List.nth sws 3 ];
    let servers = Topology.Fat_tree.servers view.Hire.View.topo in
    Sim.Cluster.place_server_task cluster ~server:servers.(2)
      ~demand:(Vec.scale 0.3 (Sim.Cluster.server_capacity cluster));
    let net = Flow_network.build ~builder view census ~jobs ~now:12.0 ~params in
    Alcotest.(check bool) "patched, not rebuilt" false (Flow_network.stats net).Flow_network.full;
    net
  in
  (* Cold networks that cut each group at [max_shortcuts]: which of the
     equal-cost candidates survive the cut, and in what order, is the
     trim's tie order.  At k=8 every server group ties across all 32
     ToRs and keeps 8. *)
  let trimmed ~k ~max_shortcuts () =
    build ~params:{ params with Cost_model.max_shortcuts } (make_cluster ~k ()) (golden_jobs ())
  in
  [
    ("sharing-unaware", sharing_unaware, "9afd56ef623031f2e0d6d0b0344aa813");
    ("related placed", related_placed, "c9c93897b815aa566740e94a20a59f7e");
    ("single-tor service", single_tor, "e79adac2c3c9af69032945c01e6d0b07");
    ("dead switches", dead_switch, "4568a82471d66049e5f9acde96fcd364");
    ("patched build", patched, "22c32c2aa2cc062f2519e2dc6c6db318");
    ("k=4 cut at 2", trimmed ~k:4 ~max_shortcuts:2, "95ad1d71ccb6a694556495d3554f4b40");
    ("k=8 cut at 8", trimmed ~k:8 ~max_shortcuts:8, "2ac9084789c1d4cb9d8cdb1ff6e0adbd");
  ]

let test_golden_network_digests () =
  List.iter
    (fun (name, build, expected) ->
      Alcotest.(check string) name expected (network_digest (build ())))
    (golden_cases ())

(* MD5s of what the default SSP solve makes of each golden network: the
   per-arc flows (with the result's shipped/unshipped/cost/augmentation
   counts) and the decomposed paths in order.  Recorded from the solver
   whose Dijkstra scanned every residual arc, dead twins included, and
   whose decomposition folded over all of them; the two cut cases from
   the live-arc solver over networks trimmed by [Array.sort]. *)
let golden_flow_digests =
  [
    ("sharing-unaware",
      ("f39c6e3d3fd9e4c8af4ab702a1c08e7a", "cca10d968cde09bfb9a1e871fb05648d"));
    ("related placed",
      ("aeb29e46e47bf85cc561e7bbc0f9e72f", "c5df108e9cb2217c64b11b2c22240e06"));
    ("single-tor service",
      ("d4d0f3e49701c4d818a1da98472b2870", "cca10d968cde09bfb9a1e871fb05648d"));
    ("dead switches",
      ("079b2b36762ebd2ef4edab7a7f66023e", "f212bd9ecf4c84750d2eaef17061b46d"));
    ("patched build",
      ("e0a2eef0914eb025f088101837abad20", "cf35b4e5968e6faba6847fcafc020e81"));
    ("k=4 cut at 2",
      ("7ce7d1e7a3beb1eacf1ee412e3d0d86e", "74c5c85c46a1fd99df4131813e4f740b"));
    ("k=8 cut at 8",
      ("ac01090523599d1ee63ef18ea0d13d12", "f8c6aa69d00eb58194e886adafce9684"));
  ]

let solve_digests net =
  let g = Flow_network.graph net in
  let r = Mcmf.solve g in
  let flows = Buffer.create 4096 in
  Printf.bprintf flows "%d,%d,%d,%d;" r.Mcmf.shipped r.Mcmf.unshipped r.Mcmf.total_cost
    r.Mcmf.augmentations;
  Graph.iter_arcs g (fun a -> Printf.bprintf flows "%d;" (Graph.flow g a));
  let paths = Buffer.create 4096 in
  List.iter
    (fun (p : Mcmf.path) ->
      Printf.bprintf paths "%d:" p.amount;
      List.iter (Printf.bprintf paths "%d,") p.nodes;
      Buffer.add_char paths ';')
    (Mcmf.decompose g);
  let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  (md5 flows, md5 paths)

let test_golden_flow_digests () =
  List.iter
    (fun (name, build, _) ->
      let flows, paths = solve_digests (build ()) in
      let want_flows, want_paths = List.assoc name golden_flow_digests in
      Alcotest.(check string) (name ^ ": flows") want_flows flows;
      Alcotest.(check string) (name ^ ": paths") want_paths paths)
    (golden_cases ())

(* A warm build keeps a group's shortcut candidates in the builder's
   reused buffers, so its allocation does not depend on how many
   candidates there are: a server group that fits under all 32 ToRs of
   a k=8 cluster allocates exactly what one that fits under a single
   ToR does. *)
let test_warm_build_alloc_flat () =
  let warm_build_words ~fitting_tors =
    let cluster = make_cluster ~k:8 () in
    let topo = Sim.Cluster.topo cluster in
    let full = Sim.Cluster.server_capacity cluster in
    Array.iteri
      (fun i tor ->
        if i >= fitting_tors then
          Array.iter
            (fun server -> Sim.Cluster.place_server_task cluster ~server ~demand:full)
            (Topology.Fat_tree.servers_under topo tor))
      (Topology.Fat_tree.tor_switches topo);
    let view = Sim.Cluster.view cluster in
    let census = Hire.Locality.Task_census.create topo in
    let ids = Transformer.Id_gen.create () in
    let jobs =
      [
        Pending.of_poly
          (Transformer.transform store ids (Rng.create 5) ~job_id:0 ~arrival:0.0
             (server_only_req 3));
      ]
    in
    let params = Cost_model.default_params in
    let builder = Flow_network.create_builder () in
    let build () = Flow_network.build ~builder view census ~jobs ~now:10.0 ~params in
    ignore (build ());
    ignore (build ());
    let before = Gc.minor_words () in
    let net = build () in
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "patched" false (Flow_network.stats net).Flow_network.full;
    (snd (Flow_network.size net), words)
  in
  let arcs_all, words_all = warm_build_words ~fitting_tors:32 in
  let arcs_one, words_one = warm_build_words ~fitting_tors:1 in
  Alcotest.(check int) "31 more shortcut arcs" 31 (arcs_all - arcs_one);
  Alcotest.(check (float 0.0)) "same minor words" words_one words_all

(* ------------------------------------------------------------------ *)
(* End-to-end property: incremental == full rebuild                    *)
(* ------------------------------------------------------------------ *)

(* One full simulation cell (mirrors Harness.Experiment.run, with the
   scheduler wrapped to log every round's placements in order). *)
let run_cell ~incremental ~k ~seed ~mu ~faults_on ~horizon =
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
  let sched = Schedulers.Registry.create ~incremental "hire" ~seed:17 cluster in
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
              Buffer.add_string log (Printf.sprintf " %d->%d" p.tg.Poly_req.tg_id p.machine))
            r.Sim.Scheduler_intf.placements;
          List.iter
            (fun (tg : Poly_req.task_group) ->
              Buffer.add_string log (Printf.sprintf " !%d" tg.Poly_req.tg_id))
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

(* [None] when the incremental run matches the full-rebuild run on the
   placement log, the final ledgers and the report; otherwise what
   diverged. *)
let divergence ~k ~seed ~mu ~faults_on ~horizon =
  let log_f, ledger_f, rep_f = run_cell ~incremental:false ~k ~seed ~mu ~faults_on ~horizon in
  let log_i, ledger_i, rep_i = run_cell ~incremental:true ~k ~seed ~mu ~faults_on ~horizon in
  let cell = Printf.sprintf "k=%d seed=%d mu=%.3f faults=%b" k seed mu faults_on in
  if not (String.equal log_f log_i) then Some ("placement logs diverge (" ^ cell ^ ")")
  else if not (String.equal ledger_f ledger_i) then Some ("final ledgers diverge (" ^ cell ^ ")")
  else if not (String.equal (report_summary rep_f) (report_summary rep_i)) then
    Some
      (Printf.sprintf "reports diverge (%s): %s vs %s" cell (report_summary rep_f)
         (report_summary rep_i))
  else None

let prop_incremental_identical =
  QCheck.Test.make ~name:"incremental solves identical to full rebuild (e2e)" ~count:8
    QCheck.(triple (int_range 0 1_000_000) (float_range 0.0 1.0) bool)
    (fun (seed, mu, faults_on) ->
      match divergence ~k:4 ~seed ~mu ~faults_on ~horizon:60.0 with
      | Some msg -> QCheck.Test.fail_report msg
      | None -> true)

(* The paper's reduced cell size: one fixed short-horizon k=8 input. *)
let test_incremental_identical_k8 () =
  match divergence ~k:8 ~seed:8 ~mu:0.5 ~faults_on:true ~horizon:60.0 with
  | Some msg -> Alcotest.fail msg
  | None -> ()

let test_cell_key_escape_hatch () =
  let base = Harness.Experiment.default in
  Alcotest.(check string)
    "incremental default keeps the historical key"
    (Harness.Experiment.cell_key base)
    (Harness.Experiment.cell_key { base with incremental = true });
  Alcotest.(check bool)
    "escape hatch gets its own cells" false
    (String.equal
       (Harness.Experiment.cell_key base)
       (Harness.Experiment.cell_key { base with incremental = false }))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "incremental"
    [
      ( "graph-patching",
        [
          Alcotest.test_case "mark/release roundtrip" `Quick test_mark_release_roundtrip;
          Alcotest.test_case "release behind mark rejected" `Quick
            test_release_behind_mark_rejected;
          Alcotest.test_case "set_cost tracks negative costs" `Quick
            test_set_cost_tracks_negative;
          Alcotest.test_case "set_cap resets the pair" `Quick test_set_cap_resets_pair;
          Alcotest.test_case "reset_flows restores capacities" `Quick
            test_reset_flows_restores_capacities;
        ] );
      ( "solver-reuse",
        [
          Alcotest.test_case "scratch solves identical" `Quick test_scratch_solve_identical;
        ] );
      ( "builder",
        [
          Alcotest.test_case "identity under churn" `Quick test_builder_identity_under_churn;
          Alcotest.test_case "golden network digests" `Quick test_golden_network_digests;
          Alcotest.test_case "golden flow digests" `Quick test_golden_flow_digests;
          Alcotest.test_case "warm build allocation flat in candidates" `Quick
            test_warm_build_alloc_flat;
        ] );
      ( "end-to-end",
        qt [ prop_incremental_identical ]
        @ [
            Alcotest.test_case "incremental identical to full rebuild at k=8" `Quick
              test_incremental_identical_k8;
            Alcotest.test_case "cell_key escape hatch" `Quick test_cell_key_escape_hatch;
          ] );
    ]
