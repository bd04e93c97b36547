(* Tests for re-solving patched networks (docs/PERFORMANCE.md): the
   solver's agreement with the full-settle reference SSP
   (test/ssp_reference.ml) on random graphs and on HIRE flow networks
   patched over several rounds, its per-arc flows on those networks
   against the full-scan reference, and the experiment spec's [reopt]
   field, which bench/perf still sets and which no longer selects
   anything: its cell key and spec blob round-trip. *)

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
   service plus server-only jobs, built through a persistent builder
   over several rounds.  Between rounds the ledgers are charged
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
  let builder = Hire.Flow_network.create_builder () in
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
(* Experiment spec                                                     *)
(* ------------------------------------------------------------------ *)

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
  Alcotest.run "reopt"
    [
      ("solver", [ Alcotest.test_case "fast equals classic" `Quick test_fast_equals_classic ]);
      ( "hire-network",
        [
          Alcotest.test_case "patched rounds equal full scan" `Quick
            test_hire_rounds_equal_full_scan;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "cell_key escape hatch" `Quick test_cell_key_escape_hatch;
          Alcotest.test_case "spec blob round-trip" `Quick test_spec_blob_roundtrip;
        ] );
    ]
