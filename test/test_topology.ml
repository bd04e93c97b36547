(* Tests for the fat-tree topology substrate: structure counts, adjacency,
   subtree queries, LCA/cover depths, the detour metric, and resources. *)

module Fat_tree = Topology.Fat_tree
module Resource = Topology.Resource
module Vec = Prelude.Vec

let t4 = Fat_tree.create ~k:4
let t8 = Fat_tree.create ~k:8

let switches_of_kind t kind =
  Array.of_list
    (List.filter (fun s -> Fat_tree.kind t s = kind) (Array.to_list (Fat_tree.switches t)))

let cores t = switches_of_kind t Fat_tree.Core
let aggs t = switches_of_kind t Fat_tree.Agg

(* The depth of the shallowest subtree holding both nodes. *)
let lca_depth t a b = Fat_tree.cover_depth t [ a; b ]

(* ------------------------------------------------------------------ *)
(* Structure                                                          *)
(* ------------------------------------------------------------------ *)

let test_counts () =
  (* k=4: 4 cores, 8 aggs, 8 tors, 16 servers. *)
  Alcotest.(check int) "cores" 4 (Array.length (cores t4));
  Alcotest.(check int) "aggs" 8 (Array.length (aggs t4));
  Alcotest.(check int) "tors" 8 (Array.length (Fat_tree.tor_switches t4));
  Alcotest.(check int) "servers" 16 (Array.length (Fat_tree.servers t4));
  Alcotest.(check int) "switches" 20 (Array.length (Fat_tree.switches t4));
  Alcotest.(check int) "total" 36 (Fat_tree.node_count t4)

let test_counts_k8 () =
  (* k=8: 16 cores, 32 aggs, 32 tors, 128 servers. *)
  Alcotest.(check int) "cores" 16 (Array.length (cores t8));
  Alcotest.(check int) "servers" 128 (Array.length (Fat_tree.servers t8))

let test_paper_scale () =
  (* The paper's k=26 tree: 4394 servers, 845 switches. *)
  let t26 = Fat_tree.create ~k:26 in
  Alcotest.(check int) "servers" 4394 (Array.length (Fat_tree.servers t26));
  Alcotest.(check int) "switches" 845 (Array.length (Fat_tree.switches t26))

let test_switches_shared () =
  (* Core, then aggregation, then ToR ids, built once: every call returns
     the same array. *)
  let expected =
    Array.concat
      [ cores t4; aggs t4; Fat_tree.tor_switches t4 ]
  in
  Alcotest.(check (array int)) "core @ agg @ tor" expected (Fat_tree.switches t4);
  Alcotest.(check (array int)) "in id order" (Array.init 20 Fun.id) (Fat_tree.switches t4);
  Alcotest.(check bool) "shared" true (Fat_tree.switches t4 == Fat_tree.switches t4);
  let ls = Fat_tree.create_leaf_spine ~spines:2 ~leafs:3 ~servers_per_leaf:2 in
  Alcotest.(check (array int)) "leaf-spine: spines @ leaves"
    (Array.append (cores ls) (Fat_tree.tor_switches ls))
    (Fat_tree.switches ls);
  Alcotest.(check bool) "leaf-spine shared" true (Fat_tree.switches ls == Fat_tree.switches ls);
  (* Switch ids are 0 .. S-1 and ToR ids consecutive: locality tables
     index switches by id and ToRs by their offset from the first. *)
  List.iter
    (fun (name, t) ->
      let sw = Fat_tree.switches t and tors = Fat_tree.tor_switches t in
      Alcotest.(check (array int)) (name ^ ": switch ids 0 .. S-1")
        (Array.init (Array.length sw) Fun.id) sw;
      Alcotest.(check (array int)) (name ^ ": ToR ids consecutive")
        (Array.init (Array.length tors) (fun j -> tors.(0) + j))
        tors;
      Alcotest.(check bool) (name ^ ": servers above the switches") true
        (Array.for_all (fun s -> s >= Array.length sw) (Fat_tree.servers t)))
    [ ("k=4", t4); ("k=6", Fat_tree.create ~k:6); ("leaf-spine", ls) ]

let test_create_rejects_odd_k () =
  Alcotest.(check bool) "odd k rejected" true
    (try
       ignore (Fat_tree.create ~k:5);
       false
     with Invalid_argument _ -> true)

let test_depths () =
  Array.iter (fun c -> Alcotest.(check int) "core depth" 0 (Fat_tree.depth t4 c))
    (cores t4);
  Array.iter (fun a -> Alcotest.(check int) "agg depth" 1 (Fat_tree.depth t4 a))
    (aggs t4);
  Array.iter (fun x -> Alcotest.(check int) "tor depth" 2 (Fat_tree.depth t4 x))
    (Fat_tree.tor_switches t4);
  Array.iter (fun s -> Alcotest.(check int) "server depth" 3 (Fat_tree.depth t4 s))
    (Fat_tree.servers t4)

(* ------------------------------------------------------------------ *)
(* Adjacency                                                          *)
(* ------------------------------------------------------------------ *)

let test_server_parent_is_its_tor () =
  Array.iter
    (fun s ->
      match Fat_tree.parents t4 s with
      | [ p ] ->
          Alcotest.(check bool) "parent is ToR" true (Fat_tree.kind t4 p = Fat_tree.Tor);
          Alcotest.(check int) "tor_of_server agrees" p (Fat_tree.tor_of_server t4 s)
      | _ -> Alcotest.fail "server must have exactly one parent")
    (Fat_tree.servers t4)

let test_tor_links () =
  Array.iter
    (fun tor ->
      let ups = Fat_tree.parents t4 tor in
      Alcotest.(check int) "tor has k/2 agg parents" 2 (List.length ups);
      List.iter
        (fun a ->
          Alcotest.(check bool) "parent is agg" true (Fat_tree.kind t4 a = Fat_tree.Agg);
          Alcotest.(check int) "same pod" (Fat_tree.node t4 tor).pod (Fat_tree.node t4 a).pod)
        ups;
      Alcotest.(check int) "tor has k/2 servers" 2 (List.length (Fat_tree.children t4 tor)))
    (Fat_tree.tor_switches t4)

let test_agg_core_links () =
  Array.iter
    (fun agg ->
      let ups = Fat_tree.parents t4 agg in
      Alcotest.(check int) "agg has k/2 core parents" 2 (List.length ups))
    (aggs t4);
  Array.iter
    (fun core ->
      Alcotest.(check int) "core has k agg children" 4
        (List.length (Fat_tree.children t4 core)))
    (cores t4)

let test_neighbors_symmetric () =
  for v = 0 to Fat_tree.node_count t4 - 1 do
    List.iter
      (fun u ->
        Alcotest.(check bool)
          (Printf.sprintf "link %d-%d symmetric" v u)
          true
          (List.mem v (Fat_tree.neighbors t4 u)))
      (Fat_tree.neighbors t4 v)
  done

(* ------------------------------------------------------------------ *)
(* Subtrees                                                           *)
(* ------------------------------------------------------------------ *)

let test_servers_under () =
  let tor = (Fat_tree.tor_switches t4).(0) in
  Alcotest.(check int) "tor covers k/2 servers" 2
    (Array.length (Fat_tree.servers_under t4 tor));
  let agg = (aggs t4).(0) in
  Alcotest.(check int) "agg covers pod servers" 4
    (Array.length (Fat_tree.servers_under t4 agg));
  let core = (cores t4).(0) in
  Alcotest.(check int) "core covers all servers" 16
    (Array.length (Fat_tree.servers_under t4 core))

(* ------------------------------------------------------------------ *)
(* LCA / cover / detour                                               *)
(* ------------------------------------------------------------------ *)

let server_in_pod t pod idx =
  let servers = Fat_tree.servers t in
  let found =
    Array.to_list servers
    |> List.filter (fun s -> (Fat_tree.node t s).Fat_tree.pod = pod)
  in
  List.nth found idx

let test_lca_servers () =
  let s0 = server_in_pod t4 0 0 and s1 = server_in_pod t4 0 1 in
  (* Same ToR (first two servers of pod 0 share tor 0). *)
  Alcotest.(check int) "same tor" 2 (lca_depth t4 s0 s1);
  let s2 = server_in_pod t4 0 2 in
  Alcotest.(check int) "same pod, diff tor" 1 (lca_depth t4 s0 s2);
  let s_other = server_in_pod t4 1 0 in
  Alcotest.(check int) "diff pod" 0 (lca_depth t4 s0 s_other)

let test_lca_server_switch () =
  let s0 = server_in_pod t4 0 0 in
  let tor = Fat_tree.tor_of_server t4 s0 in
  Alcotest.(check int) "server with its tor" 2 (lca_depth t4 s0 tor);
  let core = (cores t4).(0) in
  Alcotest.(check int) "server with a core" 0 (lca_depth t4 s0 core)

let test_lca_self () =
  let s0 = server_in_pod t4 0 0 in
  Alcotest.(check int) "self lca is own depth" 3 (lca_depth t4 s0 s0)

let test_cover_depth () =
  let s0 = server_in_pod t4 0 0 and s1 = server_in_pod t4 0 1 in
  Alcotest.(check int) "pair same tor" 2 (Fat_tree.cover_depth t4 [ s0; s1 ]);
  let s_far = server_in_pod t4 2 0 in
  Alcotest.(check int) "cross pod" 0 (Fat_tree.cover_depth t4 [ s0; s1; s_far ]);
  Alcotest.(check int) "singleton" 3 (Fat_tree.cover_depth t4 [ s0 ])

let test_detour_zero_when_switch_on_path () =
  let s0 = server_in_pod t4 0 0 and s1 = server_in_pod t4 0 1 in
  let tor = Fat_tree.tor_of_server t4 s0 in
  Alcotest.(check int) "tor on path" 0
    (Fat_tree.detour t4 ~servers:[ s0; s1 ] ~switches:[ tor ])

let test_detour_positive_for_remote_switch () =
  let s0 = server_in_pod t4 0 0 and s1 = server_in_pod t4 0 1 in
  (* Servers covered at ToR level (depth 2); a core switch forces the
     cover to depth 0 -> detour 2. *)
  let core = (cores t4).(0) in
  Alcotest.(check int) "core detour" 2
    (Fat_tree.detour t4 ~servers:[ s0; s1 ] ~switches:[ core ]);
  (* An agg of the same pod costs one level. *)
  let agg = List.hd (Fat_tree.parents t4 (Fat_tree.tor_of_server t4 s0)) in
  Alcotest.(check int) "agg detour" 1
    (Fat_tree.detour t4 ~servers:[ s0; s1 ] ~switches:[ agg ])

let test_detour_no_switches () =
  let s0 = server_in_pod t4 0 0 in
  Alcotest.(check int) "no switches" 0 (Fat_tree.detour t4 ~servers:[ s0 ] ~switches:[])

let prop_lca_symmetric =
  QCheck.Test.make ~name:"lca_depth is symmetric" ~count:300
    QCheck.(pair (int_range 0 35) (int_range 0 35))
    (fun (a, b) -> lca_depth t4 a b = lca_depth t4 b a)

let prop_detour_nonnegative =
  let gen = QCheck.(pair (list_of_size Gen.(int_range 1 5) (int_range 20 35))
                      (list_of_size Gen.(int_range 0 4) (int_range 0 19))) in
  QCheck.Test.make ~name:"detour is non-negative and bounded by 3" ~count:300 gen
    (fun (servers, switches) ->
      let d = Fat_tree.detour t4 ~servers ~switches in
      d >= 0 && d <= 3)

(* ------------------------------------------------------------------ *)
(* Leaf-spine                                                         *)
(* ------------------------------------------------------------------ *)

let ls = Fat_tree.create_leaf_spine ~spines:4 ~leafs:8 ~servers_per_leaf:6

let test_leaf_spine_counts () =
  Alcotest.(check int) "spines" 4 (Array.length (cores ls));
  Alcotest.(check int) "no aggregation tier" 0 (Array.length (aggs ls));
  Alcotest.(check int) "leafs" 8 (Array.length (Fat_tree.tor_switches ls));
  Alcotest.(check int) "servers" 48 (Array.length (Fat_tree.servers ls));
  Alcotest.(check int) "switches" 12 (Array.length (Fat_tree.switches ls))

let test_leaf_spine_adjacency () =
  Array.iter
    (fun leaf ->
      Alcotest.(check int) "leaf uplinks to every spine" 4
        (List.length (Fat_tree.parents ls leaf));
      Alcotest.(check int) "servers per leaf" 6 (List.length (Fat_tree.children ls leaf)))
    (Fat_tree.tor_switches ls);
  Array.iter
    (fun spine ->
      Alcotest.(check int) "spine reaches every leaf" 8
        (List.length (Fat_tree.children ls spine));
      Alcotest.(check int) "spine subtree covers all servers" 48
        (Array.length (Fat_tree.servers_under ls spine)))
    (cores ls)

let test_leaf_spine_locality () =
  let servers = Fat_tree.servers ls in
  let s0 = servers.(0) and s1 = servers.(1) and s_far = servers.(47) in
  Alcotest.(check int) "same leaf" 2 (lca_depth ls s0 s1);
  Alcotest.(check int) "cross leaf goes via spine" 0 (lca_depth ls s0 s_far);
  let leaf = Fat_tree.tor_of_server ls s0 in
  Alcotest.(check int) "leaf on path" 0 (Fat_tree.detour ls ~servers:[ s0; s1 ] ~switches:[ leaf ]);
  let spine = (cores ls).(0) in
  Alcotest.(check int) "spine detour" 2
    (Fat_tree.detour ls ~servers:[ s0; s1 ] ~switches:[ spine ])

let test_leaf_spine_schedules_end_to_end () =
  (* The whole stack runs unchanged on the multi-path two-tier fabric. *)
  let store = Hire.Comp_store.default () in
  let cluster =
    Sim.Cluster.create
      ~topology:(Fat_tree.create_leaf_spine ~spines:4 ~leafs:8 ~servers_per_leaf:6)
      ~inc_capable_fraction:1.0 ~k:0 ~setup:Sim.Cluster.Homogeneous
      ~services:(Array.to_list (Hire.Comp_store.service_names store))
      (Prelude.Rng.create 3)
  in
  let ids = Hire.Transformer.Id_gen.create () in
  let req =
    {
      Hire.Comp_req.priority = Workload.Job.Batch;
      composites =
        [
          {
            Hire.Comp_req.comp_id = "c";
            template = "coordinator";
            base = { Hire.Comp_req.instances = 10; cpu = 2.0; mem = 4.0; duration = 30.0 };
            inc_alternatives = [ "netchain" ];
          };
        ];
      connections = [];
    }
  in
  let poly = Hire.Transformer.transform store ids (Prelude.Rng.create 4) ~job_id:0 ~arrival:0.0 req in
  let sched = Schedulers.Registry.create "hire" ~seed:1 cluster in
  let result = Sim.Simulator.run cluster sched [ (0.0, poly) ] in
  Alcotest.(check int) "inc served on leaf-spine" 1
    result.Sim.Simulator.report.Sim.Metrics.inc_jobs_served

(* ------------------------------------------------------------------ *)
(* Resources                                                          *)
(* ------------------------------------------------------------------ *)

let test_resource_dims () =
  Alcotest.(check int) "server dims" 2 Resource.Server.count;
  Alcotest.(check int) "switch dims" 3 Resource.Switch.count;
  Alcotest.(check int) "server cap dim" 2 (Vec.dim Resource.Server.default_capacity);
  Alcotest.(check int) "switch cap dim" 3 (Vec.dim Resource.Switch.default_capacity)

let test_paper_switch_capacity () =
  (* §6.2: 48 stages, 22 MB SRAM. *)
  let cap = Resource.Switch.default_capacity in
  Alcotest.(check (float 1e-9)) "stages" 48.0 cap.(Resource.Switch.stages);
  Alcotest.(check (float 1e-9)) "sram" 22.0 cap.(Resource.Switch.sram)

let test_utilization () =
  let capacity = Vec.of_list [ 10.0; 20.0 ] in
  let available = Vec.of_list [ 5.0; 20.0 ] in
  let u = Resource.utilization ~capacity ~available in
  Alcotest.(check (float 1e-9)) "dim0" 0.5 u.(0);
  Alcotest.(check (float 1e-9)) "dim1" 0.0 u.(1)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "topology"
    [
      ( "structure",
        [
          Alcotest.test_case "counts k=4" `Quick test_counts;
          Alcotest.test_case "counts k=8" `Quick test_counts_k8;
          Alcotest.test_case "paper scale k=26" `Quick test_paper_scale;
          Alcotest.test_case "switches shared" `Quick test_switches_shared;
          Alcotest.test_case "odd k rejected" `Quick test_create_rejects_odd_k;
          Alcotest.test_case "depths" `Quick test_depths;
        ] );
      ( "adjacency",
        [
          Alcotest.test_case "server-tor" `Quick test_server_parent_is_its_tor;
          Alcotest.test_case "tor links" `Quick test_tor_links;
          Alcotest.test_case "agg-core links" `Quick test_agg_core_links;
          Alcotest.test_case "symmetry" `Quick test_neighbors_symmetric;
        ] );
      ( "subtrees",
        [
          Alcotest.test_case "servers under" `Quick test_servers_under;
        ] );
      ( "locality",
        Alcotest.test_case "lca servers" `Quick test_lca_servers
        :: Alcotest.test_case "lca server/switch" `Quick test_lca_server_switch
        :: Alcotest.test_case "lca self" `Quick test_lca_self
        :: Alcotest.test_case "cover depth" `Quick test_cover_depth
        :: Alcotest.test_case "detour on-path" `Quick test_detour_zero_when_switch_on_path
        :: Alcotest.test_case "detour remote" `Quick test_detour_positive_for_remote_switch
        :: Alcotest.test_case "detour no switches" `Quick test_detour_no_switches
        :: qt [ prop_lca_symmetric; prop_detour_nonnegative ] );
      ( "leaf_spine",
        [
          Alcotest.test_case "counts" `Quick test_leaf_spine_counts;
          Alcotest.test_case "adjacency" `Quick test_leaf_spine_adjacency;
          Alcotest.test_case "locality/detour" `Quick test_leaf_spine_locality;
          Alcotest.test_case "schedules end-to-end" `Quick test_leaf_spine_schedules_end_to_end;
        ] );
      ( "resources",
        [
          Alcotest.test_case "dims" `Quick test_resource_dims;
          Alcotest.test_case "paper capacity" `Quick test_paper_switch_capacity;
          Alcotest.test_case "utilization" `Quick test_utilization;
        ] );
    ]
