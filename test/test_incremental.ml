(* Tests for incremental flow-network maintenance (docs/PERFORMANCE.md):
   the Graph in-place patching primitives (mark/release, set_cost,
   negative-cost tracking, the flow reset after solves and injected
   corruption), solver scratch exactness, builder-vs-fresh network
   identity under cost, structural, and liveness churn at k=4 and k=8,
   the builder's shared locality contexts against fresh builds under
   census churn, and the end-to-end property that a simulation run with
   [incremental = true] is placement-for-placement identical to the
   full-rebuild path — with and without fault injection, on random k=4
   cells and one fixed k=8 cell. *)

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

(* One sweep undoes everything that moved flow since the last one: two
   solves in a row (the second routes over the first's residual network
   and cancels flow on a residual twin), then injected corruption. *)
let test_reset_flows_restores_capacities () =
  let g = Graph.create () in
  let s = Graph.add_nodes g 4 in
  let a = s + 1 and b = s + 2 and t = s + 3 in
  let arc src dst cost = Graph.add_arc g ~src ~dst ~cap:1 ~cost in
  ignore (arc s a 1);
  let ab = arc a b 1 in
  ignore (arc b t 1);
  ignore (arc s b 5);
  let at = arc a t 5 in
  Graph.set_supply g s 1;
  Graph.set_supply g t (-1);
  let check_zero_flow what =
    Graph.iter_arcs g (fun x ->
        Alcotest.(check int) (what ^ ": flow zero") 0 (Graph.flow g x);
        Alcotest.(check int) (what ^ ": residual = original cap") (Graph.capacity g x)
          (Graph.residual_cap g x))
  in
  Alcotest.(check int) "first solve ships" 1 (Mcmf.solve g).Mcmf.shipped;
  Alcotest.(check int) "first solve takes the cheap path" 1 (Graph.flow g ab);
  Alcotest.(check int) "second solve ships" 1 (Mcmf.solve g).Mcmf.shipped;
  Alcotest.(check int) "second solve cancels a->b" 0 (Graph.flow g ab);
  Alcotest.(check int) "second solve uses a->t" 1 (Graph.flow g at);
  Graph.reset_flows g;
  check_zero_flow "after two solves";
  Graph.corrupt_flow g at 3;
  Alcotest.(check int) "corruption shows" 3 (Graph.flow g at);
  Graph.reset_flows g;
  check_zero_flow "after corruption"

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
   supply.  Any change to them is a change to the networks HIRE builds.
   They were last re-recorded when the builder stopped building the
   topology nodes no flow can reach: the surviving nodes keep their
   order, but their ids shift down, so every id-level digest moved.
   The role digests below, recorded before that change, show that
   nothing else did. *)
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
    ("sharing-unaware", sharing_unaware, "48b5190d2fb1294ef9f01fbe7a51253d");
    ("related placed", related_placed, "0a93d2a97d6b08c4df5d0ff3b8e4bc54");
    ("single-tor service", single_tor, "006bb4bc51eb710bfd74e773d82f5473");
    ("dead switches", dead_switch, "4f2976b633533b5d3fe14196b01edffd");
    ("patched build", patched, "12e925dacfe527fbd006e98e911b03b1");
    ("k=4 cut at 2", trimmed ~k:4 ~max_shortcuts:2, "208266d599b85d93110549ddd0e37c0d");
    ("k=8 cut at 8", trimmed ~k:8 ~max_shortcuts:8, "bb482b3322c790ad83f27d8f32aa89c1");
  ]

let test_golden_network_digests () =
  List.iter
    (fun (name, build, expected) ->
      Alcotest.(check string) name expected (network_digest (build ())))
    (golden_cases ())

(* MD5s of what the default SSP solve makes of each golden network: the
   per-arc flows (with the result's shipped/unshipped/cost/augmentation
   counts) and the decomposed paths in order.  Re-recorded with the
   network digests above; the role digests pin the same flows and
   paths by role. *)
let golden_flow_digests =
  [
    ("sharing-unaware",
      ("0053f9496f5bc79c7d4fd8fa38e7bc2f", "95580e39007369db0577d1e04b292282"));
    ("related placed",
      ("84c549eafa862e081a21b6f0864fb2b3", "62068f3a079c96e8bd77911dddeca863"));
    ("single-tor service",
      ("6721e4cdf0b15ea38fd000ab870f4afa", "95580e39007369db0577d1e04b292282"));
    ("dead switches",
      ("944e02db2a8a2895a99ab5de71e7fccd", "e27bd1dc43d248d22cf7e3817924b1c6"));
    ("patched build",
      ("0bbc6d2aa2df021596a43562c638a6e6", "dbf85ac5b56a289c528634b2d83aa22c"));
    ("k=4 cut at 2",
      ("298cf1812491e071921ace84345b33f1", "6cb42d2102d55b6f0d095b38fc3877c4"));
    ("k=8 cut at 8",
      ("0f88d00af6ac5acd7427b6a9ccd6a0f4", "70eb053bf7152d987b7ac1ee2f25cf87"));
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

(* The golden networks again, named by role instead of by graph id, so
   the digests do not move when nodes that carry no flow are added to or
   dropped from the build: the arcs as (role of src, role of dst, cap,
   cost) in creation order with each role's supply, the per-arc flows of
   the default SSP solve, and its decomposed paths as role sequences.
   The expected values were recorded from the builder that still built
   Fig. 6's whole topology part, with its Nn copy, the Ns of aggregation
   and core switches and every arc touching them skipped. *)
let role_digests net =
  let g = Flow_network.graph net in
  let name v = Format.asprintf "%a" Flow_network.pp_role (Flow_network.role net v) in
  let arcs = Buffer.create 4096 in
  Graph.iter_arcs g (fun a ->
      Printf.bprintf arcs "%s,%s,%d,%d;" (name (Graph.src g a)) (name (Graph.dst g a))
          (Graph.capacity g a) (Graph.cost g a));
  for v = 0 to Graph.node_count g - 1 do
    Printf.bprintf arcs "%s:%d;" (name v) (Graph.supply g v)
  done;
  let r = Mcmf.solve g in
  let flows = Buffer.create 4096 in
  Printf.bprintf flows "%d,%d,%d,%d;" r.Mcmf.shipped r.Mcmf.unshipped r.Mcmf.total_cost
    r.Mcmf.augmentations;
  Graph.iter_arcs g (fun a -> Printf.bprintf flows "%d;" (Graph.flow g a));
  let paths = Buffer.create 4096 in
  List.iter
    (fun (p : Mcmf.path) ->
      Printf.bprintf paths "%d:" p.amount;
      List.iter (fun v -> Printf.bprintf paths "%s," (name v)) p.nodes;
      Buffer.add_char paths ';')
    (Mcmf.decompose g);
  let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  (md5 arcs, md5 flows, md5 paths)

let golden_role_digests =
  [
    ( "sharing-unaware",
      ("ac2407e516e03f3c208b132db6a971c0", "0053f9496f5bc79c7d4fd8fa38e7bc2f",
       "ecca52bfc815d2474b6e3d226c642f15") );
    ( "related placed",
      ("adee6133eee320e18f8b03722fdf02eb", "84c549eafa862e081a21b6f0864fb2b3",
       "c6c57bc24d93a1e353dc931e7f239574") );
    ( "single-tor service",
      ("eb27157b17f8a553299f4f14edc0ac31", "6721e4cdf0b15ea38fd000ab870f4afa",
       "ecca52bfc815d2474b6e3d226c642f15") );
    ( "dead switches",
      ("b4384b722c27ceff4572fa62f4ed5d9b", "944e02db2a8a2895a99ab5de71e7fccd",
       "1a41f10761fb2498cb8528c281ec2f5c") );
    ( "patched build",
      ("050e1104539fee685ed9faf1fb3048d7", "0bbc6d2aa2df021596a43562c638a6e6",
       "dcd127cb53fad0d28adaa70aab8646ba") );
    ( "k=4 cut at 2",
      ("85f0ee254d28db5457c6b5eb5f85c4b0", "298cf1812491e071921ace84345b33f1",
       "f6412246dca449a64c004a531c00276a") );
    ( "k=8 cut at 8",
      ("a99fd3dc90178166be68c402bf8f46ec", "0f88d00af6ac5acd7427b6a9ccd6a0f4",
       "78d619c0f8badd96702a9182640e3eac") );
  ]

let test_golden_role_digests () =
  List.iter
    (fun (name, build, _) ->
      let arcs, flows, paths = role_digests (build ()) in
      let want_arcs, want_flows, want_paths = List.assoc name golden_role_digests in
      Alcotest.(check string) (name ^ ": arcs") want_arcs arcs;
      Alcotest.(check string) (name ^ ": flows") want_flows flows;
      Alcotest.(check string) (name ^ ": paths") want_paths paths)
    (golden_cases ())

(* [Flow_network.size] is the only input of the simulated think time
   (Hire_adapter.think_of, Coco_pp.think_of), so it must read the same
   (nodes, arcs) whatever the builder leaves out of the graph.  The
   expected sizes are the graph sizes of the full Fig. 6 layout. *)
let golden_sizes =
  [
    ("sharing-unaware", (87, 220));
    ("related placed", (87, 218));
    ("single-tor service", (87, 198));
    ("dead switches", (90, 232));
    ("patched build", (87, 218));
    ("k=4 cut at 2", (92, 168));
    ("k=8 cut at 8", (384, 1008));
  ]

let test_golden_sizes () =
  List.iter
    (fun (name, build, _) ->
      let nodes, arcs = Flow_network.size (build ()) in
      let want_nodes, want_arcs = List.assoc name golden_sizes in
      Alcotest.(check int) (name ^ ": nodes") want_nodes nodes;
      Alcotest.(check int) (name ^ ": arcs") want_arcs arcs)
    (golden_cases ())

(* ------------------------------------------------------------------ *)
(* Exactness of the reachable-only network                             *)
(* ------------------------------------------------------------------ *)

(* [with_unreachable topo net] is a copy of [net]'s graph with the part of
   Fig. 6 the builder leaves out appended after it: an Nn node per
   switch, an Ns node per aggregation or core switch, an Nn→Mn arc per
   Mn, and per switch-switch link an Ns and an Nn arc with capacity
   beyond any flow.  The original nodes and arcs keep their ids. *)
let with_unreachable topo net =
  let g = Graph.copy (Flow_network.graph net) in
  let n = Topology.Fat_tree.node_count topo in
  let ns = Array.make n (-1) and nn = Array.make n (-1) and mn = Array.make n (-1) in
  for v = 0 to Graph.node_count g - 1 do
    match Flow_network.role net v with
    | Flow_network.Aux_server tor -> ns.(tor) <- v
    | Flow_network.Machine_inc s -> mn.(s) <- v
    | _ -> ()
  done;
  let switches = Topology.Fat_tree.switches topo in
  Array.iter
    (fun s ->
      if Topology.Fat_tree.kind topo s <> Topology.Fat_tree.Tor then ns.(s) <- Graph.add_node g;
      nn.(s) <- Graph.add_node g)
    switches;
  let big = Graph.total_positive_supply g + 1 in
  Array.iter
    (fun s ->
      if mn.(s) >= 0 then ignore (Graph.add_arc g ~src:nn.(s) ~dst:mn.(s) ~cap:1 ~cost:0);
      List.iter
        (fun c ->
          if Topology.Fat_tree.is_switch topo c then begin
            ignore (Graph.add_arc g ~src:ns.(s) ~dst:ns.(c) ~cap:big ~cost:0);
            ignore (Graph.add_arc g ~src:nn.(s) ~dst:nn.(c) ~cap:big ~cost:0)
          end)
        (Topology.Fat_tree.children topo s))
    switches;
  g

(* A random round: random jobs, server ledgers, switch sharing state,
   dead servers and dead switches. *)
let random_round ~k ~seed =
  let rng = Rng.create seed in
  let services = Comp_store.service_names store in
  let cluster =
    Sim.Cluster.create
      ~inc_capable_fraction:(Rng.float_in rng 0.25 1.0)
      ~k
      ~setup:(if Rng.bool rng then Sim.Cluster.Homogeneous else Sim.Cluster.Heterogeneous)
      ~services:(Array.to_list services) (Rng.split rng)
  in
  let topo = Sim.Cluster.topo cluster in
  let ids = Transformer.Id_gen.create () in
  let jobs =
    List.init (Rng.int_in rng 1 6) (fun i ->
        let req =
          if Rng.bool rng then inc_req ~service:(Rng.choose rng services) ~n:(Rng.int_in rng 1 6) ()
          else server_only_req ~cpu:(Rng.float_in rng 0.5 8.0) (Rng.int_in rng 1 6)
        in
        Pending.of_poly
          (Transformer.transform store ids (Rng.split rng) ~job_id:i ~arrival:(float_of_int i)
             req))
  in
  let capacity = Sim.Cluster.server_capacity cluster in
  Array.iter
    (fun server ->
      if Rng.bernoulli rng 0.5 then
        Sim.Cluster.place_server_task cluster ~server
          ~demand:(Vec.scale (Rng.float_in rng 0.0 1.0) capacity))
    (Topology.Fat_tree.servers topo);
  let sws = Array.of_list (inc_switches cluster) in
  List.iter
    (fun ts ->
      charge_switches cluster ts
        (List.filter (fun _ -> Rng.bernoulli rng 0.3) (Array.to_list sws)))
    (network_tgs jobs);
  Array.iter
    (fun node -> if Rng.bernoulli rng 0.1 then Sim.Cluster.fail_node cluster ~time:1.0 node)
    (Array.append (Topology.Fat_tree.servers topo) (Topology.Fat_tree.switches topo));
  let view = Sim.Cluster.view cluster in
  let census = Hire.Locality.Task_census.create topo in
  (topo, Flow_network.build view census ~jobs ~now:10.0 ~params:Cost_model.default_params)

let prop_reachable_exact =
  QCheck.Test.make ~name:"unreachable topology changes no flow" ~count:50
    QCheck.(triple (int_range 0 1_000_000) bool bool)
    (fun (seed, k8, classic) ->
      let k = if k8 then 8 else 4 in
      let solve g =
        if classic then
          let r = Ssp_reference.classic g in
          (r.total_cost, r.shipped)
        else
          let r = Mcmf.solve g in
          (r.total_cost, r.shipped)
      in
      let topo, net = random_round ~k ~seed in
      let g = Flow_network.graph net in
      let full = with_unreachable topo net in
      let r = solve g and r_full = solve full in
      let same_flows = ref true in
      Graph.iter_arcs g (fun a -> if Graph.flow g a <> Graph.flow full a then same_flows := false);
      let same_paths = Mcmf.decompose g = Mcmf.decompose full in
      if r <> r_full then QCheck.Test.fail_reportf "objective differs (k=%d seed=%d)" k seed
      else if not !same_flows then QCheck.Test.fail_reportf "arc flows differ (k=%d seed=%d)" k seed
      else if not same_paths then QCheck.Test.fail_reportf "paths differ (k=%d seed=%d)" k seed
      else true)

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

(* [View.server_available] hands the builder the live server ledgers,
   and Mn→K pricing reads the live switch ledgers: building, solving
   and extracting a k=8 network, cold and then patched, must leave
   every ledger encoding to the same bytes. *)
let test_build_leaves_ledgers () =
  let cluster = make_cluster ~k:8 ~fraction:0.75 () in
  let view = Sim.Cluster.view cluster in
  let census = Hire.Locality.Task_census.create view.Hire.View.topo in
  let jobs = golden_jobs () in
  let params = Cost_model.default_params in
  let builder = Flow_network.create_builder () in
  let round name =
    let before = Sim.Cluster.snapshot cluster in
    let net = Flow_network.build ~builder view census ~jobs ~now:10.0 ~params in
    let out = Flow_network.solve_and_extract net in
    Alcotest.(check bool) (name ^ ": placed something") true
      (out.Flow_network.placements <> []);
    Alcotest.(check bool) (name ^ ": ledgers unchanged") true
      (String.equal before (Sim.Cluster.snapshot cluster));
    (Flow_network.stats net).Flow_network.full
  in
  Alcotest.(check bool) "cold build" true (round "cold");
  (* Charges dirty a few servers and switches, so the next build
     re-prices them and re-aggregates their ToRs in place. *)
  let servers = Topology.Fat_tree.servers view.Hire.View.topo in
  let demand = Vec.scale 0.3 (Sim.Cluster.server_capacity cluster) in
  List.iter
    (fun i -> Sim.Cluster.place_server_task cluster ~server:servers.(i) ~demand)
    [ 0; 1; 17 ];
  charge_switches cluster (List.hd (network_tgs jobs)) [ List.nth (inc_switches cluster) 2 ];
  Alcotest.(check bool) "patched build" false (round "patched")

(* ------------------------------------------------------------------ *)
(* Shared locality contexts                                            *)
(* ------------------------------------------------------------------ *)

(* An INC composite wired to a server composite: the groups of both are
   each other's related groups, so their contexts share one key. *)
let linked_req ~service ~n ~cpu =
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
        {
          Comp_req.comp_id = "c1";
          template = "server";
          base = { Comp_req.instances = n; cpu; mem = 4.0; duration = 30.0 };
          inc_alternatives = [];
        };
      ];
    connections = [ ("c0", "c1") ];
  }

let all_tg_ids jobs =
  List.concat_map
    (fun (j : Pending.job_state) ->
      List.map (fun (ts : Pending.tg_state) -> ts.tg.Poly_req.tg_id) (Array.to_list j.tg_states))
    jobs

let counter name = Obs.Registry.counter_value (Obs.Registry.counter name)

(* A warm builder reuses a context while the census stamps of its ids
   stay put, and recomputes it once one moves: a change to an unrelated
   group is invisible to it. *)
let test_loc_ctx_reuse () =
  let cluster = make_cluster ~k:8 () in
  let view = Sim.Cluster.view cluster in
  let topo = view.Hire.View.topo in
  let census = Hire.Locality.Task_census.create topo in
  let ids = Transformer.Id_gen.create () in
  let jobs =
    [
      Pending.of_poly
        (Transformer.transform store ids (Rng.create 5) ~job_id:0 ~arrival:0.0
           (linked_req ~service:"netchain" ~n:3 ~cpu:2.0));
    ]
  in
  let tgs = all_tg_ids jobs in
  let servers = Topology.Fat_tree.servers topo in
  Hire.Locality.Task_census.add census ~tg_id:(List.hd tgs) ~machine:servers.(0);
  let builder = Flow_network.create_builder () in
  let params = Cost_model.default_params in
  Obs.Registry.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Registry.reset ())
    (fun () ->
      let build () =
        let c0 = counter "hire.loc_ctx.computed" and r0 = counter "hire.loc_ctx.reused" in
        ignore (Flow_network.build ~builder view census ~jobs ~now:10.0 ~params);
        (counter "hire.loc_ctx.computed" - c0, counter "hire.loc_ctx.reused" - r0)
      in
      let n = List.length tgs in
      Alcotest.(check bool) "several groups" true (n > 1);
      Alcotest.(check (pair int int)) "cold: one context, shared" (1, n - 1) (build ());
      Alcotest.(check (pair int int)) "warm: reused" (0, n) (build ());
      Hire.Locality.Task_census.add census ~tg_id:999_999 ~machine:servers.(1);
      Alcotest.(check (pair int int)) "unrelated change: reused" (0, n) (build ());
      Hire.Locality.Task_census.add census ~tg_id:(List.nth tgs 1) ~machine:servers.(2);
      Alcotest.(check (pair int int)) "related change: recomputed" (1, n - 1) (build ()))

(* Random multi-round k=4/k=8 runs with one persistent builder.  Between
   builds the census churns on related and unrelated groups (adds,
   removals, cleared groups, an encode/decode round trip), and ledger
   charges dirty servers and switches.  Every round, the persistent
   builder's network must equal a fresh builder's arc for arc and
   supply for supply, with the same placements and objective. *)
let prop_shared_loc_ctx_exact =
  QCheck.Test.make ~name:"shared locality contexts = fresh builds under census churn" ~count:40
    QCheck.(pair (int_range 0 1_000_000) bool)
    (fun (seed, k8) ->
      let k = if k8 then 8 else 4 in
      let rng = Rng.create seed in
      let services = Comp_store.service_names store in
      let cluster =
        Sim.Cluster.create
          ~inc_capable_fraction:(Rng.float_in rng 0.5 1.0)
          ~k ~setup:Sim.Cluster.Homogeneous ~services:(Array.to_list services) (Rng.split rng)
      in
      let topo = Sim.Cluster.topo cluster in
      let view = Sim.Cluster.view cluster in
      let census = Hire.Locality.Task_census.create topo in
      let ids = Transformer.Id_gen.create () in
      let jobs =
        List.init (Rng.int_in rng 2 5) (fun i ->
            let service = Rng.choose rng services and n = Rng.int_in rng 1 5 in
            let req =
              match Rng.int_in rng 0 2 with
              | 0 -> linked_req ~service ~n ~cpu:(Rng.float_in rng 0.5 8.0)
              | 1 -> inc_req ~service ~n ()
              | _ -> server_only_req ~cpu:(Rng.float_in rng 0.5 8.0) n
            in
            Pending.of_poly
              (Transformer.transform store ids (Rng.split rng) ~job_id:i
                 ~arrival:(float_of_int i) req))
      in
      let groups = Array.of_list (all_tg_ids jobs @ [ 900_001; 900_002 ]) in
      let machines =
        Array.append (Topology.Fat_tree.servers topo) (Topology.Fat_tree.switches topo)
      in
      let servers = Topology.Fat_tree.servers topo in
      let sws = Array.of_list (inc_switches cluster) in
      let ntgs = Array.of_list (network_tgs jobs) in
      let demand = Vec.scale 0.1 (Sim.Cluster.server_capacity cluster) in
      let placed = ref [] in
      let churn () =
        for _ = 1 to Rng.int_in rng 0 3 do
          match Rng.int_in rng 0 3 with
          | 0 | 1 ->
              let tg_id = Rng.choose rng groups and machine = Rng.choose rng machines in
              Hire.Locality.Task_census.add census ~tg_id ~machine;
              placed := (tg_id, machine) :: !placed
          | 2 -> (
              match !placed with
              | [] -> ()
              | l ->
                  let i = Rng.int_in rng 0 (List.length l - 1) in
                  let tg_id, machine = List.nth l i in
                  Hire.Locality.Task_census.remove census ~tg_id ~machine;
                  placed := List.filteri (fun j _ -> j <> i) l)
          | _ ->
              let tg_id = Rng.choose rng groups in
              Hire.Locality.Task_census.clear_group census ~tg_id;
              placed := List.filter (fun (t, _) -> t <> tg_id) !placed
        done;
        if Rng.bernoulli rng 0.5 then begin
          let server = Rng.choose rng servers in
          try Sim.Cluster.place_server_task cluster ~server ~demand with Invalid_argument _ -> ()
        end;
        if Array.length ntgs > 0 && Array.length sws > 0 && Rng.bernoulli rng 0.3 then
          charge_switches cluster (Rng.choose rng ntgs) [ Rng.choose rng sws ];
        if Rng.bernoulli rng 0.2 then begin
          let e = Prelude.Codec.Enc.create () in
          Hire.Locality.Task_census.encode_state census e;
          Hire.Locality.Task_census.decode_state census
            (Prelude.Codec.Dec.of_string (Prelude.Codec.Enc.to_string e))
        end
      in
      let builder = Flow_network.create_builder () in
      let params = Cost_model.default_params in
      let rec rounds r =
        r > 8
        ||
        let now = 10.0 +. float_of_int r in
        churn ();
        let ni = Flow_network.build ~builder view census ~jobs ~now ~params in
        let nf = Flow_network.build view census ~jobs ~now ~params in
        let gi = Flow_network.graph ni and gf = Flow_network.graph nf in
        let supplies g = List.init (Graph.node_count g) (Graph.supply g) in
        let oi = Flow_network.solve_and_extract ni and o_f = Flow_network.solve_and_extract nf in
        let fail what = QCheck.Test.fail_reportf "%s differ (k=%d seed=%d round %d)" what k seed r in
        if arcs_of gi <> arcs_of gf then fail "arcs"
        else if supplies gi <> supplies gf then fail "supplies"
        else if oi.Flow_network.placements <> o_f.Flow_network.placements then fail "placements"
        else if
          oi.Flow_network.solver.Mcmf.total_cost <> o_f.Flow_network.solver.Mcmf.total_cost
        then fail "objectives"
        else rounds (r + 1)
      in
      rounds 1)

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
          Alcotest.test_case "golden role digests" `Quick test_golden_role_digests;
          Alcotest.test_case "size pins the think-time input" `Quick test_golden_sizes;
          Alcotest.test_case "build leaves the ledgers unchanged" `Quick
            test_build_leaves_ledgers;
          Alcotest.test_case "warm build allocation flat in candidates" `Quick
            test_warm_build_alloc_flat;
        ] );
      ("reachable-only", qt [ prop_reachable_exact ]);
      ( "shared-loc",
        Alcotest.test_case "memo reused until a stamp moves" `Quick test_loc_ctx_reuse
        :: qt [ prop_shared_loc_ctx_exact ] );
      ( "end-to-end",
        qt [ prop_incremental_identical ]
        @ [
            Alcotest.test_case "incremental identical to full rebuild at k=8" `Quick
              test_incremental_identical_k8;
            Alcotest.test_case "cell_key escape hatch" `Quick test_cell_key_escape_hatch;
          ] );
    ]
