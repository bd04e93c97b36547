(* Tests for the HIRE resource model: flavor vectors, the CompStore
   catalogue, CompReq validation, the model transformer, non-linear
   sharing, locality, and the cost model. *)

module Flavor = Hire.Flavor
module Comp_store = Hire.Comp_store
module Comp_req = Hire.Comp_req
module Poly_req = Hire.Poly_req
module Transformer = Hire.Transformer
module Sharing = Hire.Sharing
module Locality = Hire.Locality
module Cost_model = Hire.Cost_model
module Pending = Hire.Pending
module Vec = Prelude.Vec
module Rng = Prelude.Rng
module Int_tbl = Prelude.Int_tbl
module Fat_tree = Topology.Fat_tree

let store = Comp_store.default ()

(* ------------------------------------------------------------------ *)
(* Flavor                                                             *)
(* ------------------------------------------------------------------ *)

let test_flavor_status () =
  let open Flavor in
  let f = Array.of_list [ One; Zero; X ] in
  Alcotest.(check bool) "undecided vs all-x" true (status ~active:(all_x 3) f = Undecided);
  let active = Array.of_list [ One; Zero; X ] in
  Alcotest.(check bool) "materialized" true (status ~active f = Materialized);
  let active = Array.of_list [ Zero; One; X ] in
  Alcotest.(check bool) "dropped" true (status ~active f = Dropped)

let test_flavor_apply () =
  let open Flavor in
  let active = apply ~active:(all_x 3) (Array.of_list [ One; Zero; X ]) in
  Alcotest.(check bool) "applied" true (equal active (Array.of_list [ One; Zero; X ]));
  Alcotest.(check bool) "contradiction raises" true
    (try
       ignore (apply ~active (Array.of_list [ Zero; X; X ]));
       false
     with Invalid_argument _ -> true)

let test_flavor_compatible () =
  let open Flavor in
  Alcotest.(check bool) "compatible" true
    (compatible (Array.of_list [ One; X ]) (Array.of_list [ X; Zero ]));
  Alcotest.(check bool) "incompatible" false
    (compatible (Array.of_list [ One; X ]) (Array.of_list [ Zero; X ]))

let test_flavor_builder () =
  let open Flavor in
  let b = Builder.create () in
  let frags = Builder.alternatives b 2 in
  Alcotest.(check int) "two coordinates" 2 (Builder.size b);
  let f0 = Builder.finalize b frags.(0) and f1 = Builder.finalize b frags.(1) in
  Alcotest.(check bool) "one-hot 0" true (equal f0 (Array.of_list [ One; Zero ]));
  Alcotest.(check bool) "one-hot 1" true (equal f1 (Array.of_list [ Zero; One ]));
  Alcotest.(check bool) "variants exclusive" false (compatible f0 f1)

let prop_flavor_apply_monotone =
  (* Applying a fragment can never flip a decided coordinate. *)
  QCheck.Test.make ~name:"apply only fills x coordinates" ~count:200
    QCheck.(list_of_size (Gen.return 6) (int_range 0 2))
    (fun bits ->
      let of_int = function 0 -> Flavor.Zero | 1 -> Flavor.One | _ -> Flavor.X in
      let f = Array.of_list (List.map of_int bits) in
      let active = Flavor.all_x 6 in
      let applied = Flavor.apply ~active f in
      Flavor.status ~active:applied f = Flavor.Materialized)

(* ------------------------------------------------------------------ *)
(* CompStore                                                          *)
(* ------------------------------------------------------------------ *)

let test_store_has_paper_catalogue () =
  let expected =
    [ "sharp"; "incbricks"; "netcache"; "distcache"; "netchain"; "harmonia"; "hovercraft"; "r2p2" ]
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (Comp_store.find_service store name <> None))
    expected;
  Alcotest.(check int) "8 services" 8 (List.length (Comp_store.services store))

let test_store_switch_counts () =
  let svc = Comp_store.service_exn store in
  (* Tab. 3 formulas. *)
  Alcotest.(check int) "sharp log2" 5 ((svc "sharp").switch_count ~group_size:32);
  Alcotest.(check int) "netcache min 3" 3 ((svc "netcache").switch_count ~group_size:4);
  Alcotest.(check int) "netcache log2" 7 ((svc "netcache").switch_count ~group_size:100);
  Alcotest.(check int) "netchain min 3" 3 ((svc "netchain").switch_count ~group_size:100);
  Alcotest.(check int) "netchain scales" 6 ((svc "netchain").switch_count ~group_size:2000);
  Alcotest.(check int) "harmonia tiny" 1 ((svc "harmonia").switch_count ~group_size:100);
  Alcotest.(check int) "harmonia big" 2 ((svc "harmonia").switch_count ~group_size:10_000)

let test_store_netcache_registration () =
  (* NetCache: 8 shared stages per switch (Tab. 3). *)
  let nc = Comp_store.service_exn store "netcache" in
  Alcotest.(check (float 1e-9)) "8 stages" 8.0
    nc.per_switch.(Topology.Resource.Switch.stages);
  Alcotest.(check (float 0.0)) "no per-switch sram" 0.0
    nc.per_switch.(Topology.Resource.Switch.sram)

let test_store_demand_draw_in_range () =
  let rng = Rng.create 5 in
  List.iter
    (fun svc ->
      for _ = 1 to 50 do
        let d = Comp_store.draw_instance_demand svc rng ~group_size:20 in
        let lo, hi = svc.Comp_store.per_instance_range ~group_size:20 in
        Array.iteri
          (fun i x ->
            Alcotest.(check bool)
              (Printf.sprintf "%s dim %d in range" svc.Comp_store.name i)
              true
              (x >= lo.(i) -. 1e-9 && x <= Float.max lo.(i) hi.(i) +. 1e-9))
          d
      done)
    (Comp_store.services store)

let test_store_templates () =
  Alcotest.(check bool) "coordinator has netchain" true
    (List.mem "netchain" (Option.get (Comp_store.find_template store "coordinator")).inc_impls);
  Alcotest.(check (option string)) "template of sharp" (Some "aggregator")
    (Comp_store.template_of_service store "sharp");
  Alcotest.(check (option string)) "unknown service" None
    (Comp_store.template_of_service store "nonsense")

let test_store_custom_p4 () =
  let s = Comp_store.default () in
  let svc =
    Comp_store.custom_p4 ~name:"my-filter" ~version:`P4_16 ~switches:2 ~recirc:5.0
      ~stages:6.0 ~sram_mb:1.5 ~shared_stages:2.0 ()
  in
  Comp_store.register_custom_p4 s svc;
  Alcotest.(check (option string)) "under custom-p4 template" (Some "custom-p4")
    (Comp_store.template_of_service s "my-filter");
  Alcotest.(check bool) "p4-16 feature" true (svc.Comp_store.feature = Comp_store.P4_16);
  Alcotest.(check int) "fixed switch count" 2 (svc.Comp_store.switch_count ~group_size:500);
  let lo, hi = svc.Comp_store.per_instance_range ~group_size:1 in
  Alcotest.(check bool) "fixed demand" true (Vec.equal lo hi);
  (* A CompReq using the custom service validates and transforms. *)
  let req =
    {
      Comp_req.priority = Workload.Job.Batch;
      composites =
        [
          {
            Comp_req.comp_id = "f";
            template = "custom-p4";
            base = { Comp_req.instances = 3; cpu = 1.0; mem = 1.0; duration = 10.0 };
            inc_alternatives = [ "my-filter" ];
          };
        ];
      connections = [];
    }
  in
  Alcotest.(check bool) "validates" true (Result.is_ok (Comp_req.validate s req));
  let ids = Transformer.Id_gen.create () in
  let poly = Transformer.transform s ids (Rng.create 1) ~job_id:1 ~arrival:0.0 req in
  Alcotest.(check int) "network group of 2 switches" 2
    (List.hd (Poly_req.network_groups poly)).Poly_req.count

let test_store_extensible () =
  let s = Comp_store.default () in
  let custom =
    {
      Comp_store.name = "custom-agg";
      feature = Comp_store.P4_16;
      shape = Comp_store.Single;
      switch_count = (fun ~group_size:_ -> 2);
      per_switch = Vec.of_list [ 0.0; 4.0; 0.0 ];
      per_instance_range = (fun ~group_size:_ -> (Vec.zero 3, Vec.of_list [ 1.0; 2.0; 3.0 ]));
      server_saving = 0.05;
      duration_saving = 0.05;
    }
  in
  Comp_store.register_custom_p4 s custom;
  Alcotest.(check bool) "registered" true (Comp_store.find_service s "custom-agg" <> None);
  Alcotest.(check (option string)) "template found" (Some "custom-p4")
    (Comp_store.template_of_service s "custom-agg");
  Alcotest.(check int) "catalogue extended, not replaced"
    (List.length (Comp_store.services store) + 1)
    (List.length (Comp_store.services s))

(* ------------------------------------------------------------------ *)
(* CompReq                                                            *)
(* ------------------------------------------------------------------ *)

let wants_inc (req : Comp_req.t) =
  List.exists (fun (c : Comp_req.composite) -> c.inc_alternatives <> []) req.composites

let server_spec n = { Comp_req.instances = n; cpu = 2.0; mem = 4.0; duration = 60.0 }

let simple_req ?(inc = []) () =
  {
    Comp_req.priority = Workload.Job.Batch;
    composites =
      [
        { Comp_req.comp_id = "web"; template = "server"; base = server_spec 4; inc_alternatives = [] };
        {
          Comp_req.comp_id = "coord";
          template = "coordinator";
          base = server_spec 6;
          inc_alternatives = inc;
        };
      ];
    connections = [ ("web", "coord") ];
  }

let test_comp_req_validate_ok () =
  match Comp_req.validate store (simple_req ~inc:[ "netchain" ] ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_comp_req_validate_catches () =
  let bad_service = simple_req ~inc:[ "bogus" ] () in
  Alcotest.(check bool) "unknown service" true
    (Result.is_error (Comp_req.validate store bad_service));
  let wrong_template =
    {
      (simple_req ()) with
      Comp_req.composites =
        [
          {
            Comp_req.comp_id = "c";
            template = "server";
            base = server_spec 2;
            inc_alternatives = [ "netchain" ] (* server template has no INC impls *);
          };
        ];
      connections = [];
    }
  in
  Alcotest.(check bool) "service not in template" true
    (Result.is_error (Comp_req.validate store wrong_template));
  let dup =
    {
      (simple_req ()) with
      Comp_req.composites =
        [
          { Comp_req.comp_id = "x"; template = "server"; base = server_spec 1; inc_alternatives = [] };
          { Comp_req.comp_id = "x"; template = "server"; base = server_spec 1; inc_alternatives = [] };
        ];
      connections = [];
    }
  in
  Alcotest.(check bool) "duplicate ids" true (Result.is_error (Comp_req.validate store dup));
  let bad_conn = { (simple_req ()) with Comp_req.connections = [ ("web", "nope") ] } in
  Alcotest.(check bool) "bad connection" true (Result.is_error (Comp_req.validate store bad_conn))

let test_comp_req_of_job () =
  let job =
    {
      Workload.Job.id = 9;
      arrival = 3.0;
      priority = Workload.Job.Service;
      groups =
        [
          { Workload.Job.tg_index = 0; count = 2; cpu = 1.0; mem = 2.0; duration = 5.0 };
          { Workload.Job.tg_index = 1; count = 3; cpu = 2.0; mem = 3.0; duration = 7.0 };
        ];
    }
  in
  let req = Comp_req.of_job job in
  Alcotest.(check int) "two composites" 2 (List.length req.composites);
  Alcotest.(check int) "chained" 1 (List.length req.connections);
  Alcotest.(check bool) "validates" true (Result.is_ok (Comp_req.validate store req));
  Alcotest.(check bool) "no inc yet" false (wants_inc req)

(* ------------------------------------------------------------------ *)
(* Transformer                                                        *)
(* ------------------------------------------------------------------ *)

let transform ?(req = simple_req ~inc:[ "netchain" ] ()) () =
  let ids = Transformer.Id_gen.create () in
  Transformer.transform store ids (Rng.create 11) ~job_id:1 ~arrival:0.0 req

let test_transform_groups () =
  let poly = transform () in
  (* web: 1 server TG; coord: server variant (1) + netchain variant
     (reduced server + 1 chain network TG) = 4 total. *)
  Alcotest.(check int) "4 task groups" 4 (List.length poly.Poly_req.task_groups);
  Alcotest.(check int) "1 network group" 1 (List.length (Poly_req.network_groups poly));
  Alcotest.(check bool) "has inc" true (Poly_req.has_inc poly);
  Alcotest.(check int) "2 flavor bits" 2 poly.Poly_req.flavor_len

let test_transform_netchain_shape () =
  let poly = transform () in
  let net = List.hd (Poly_req.network_groups poly) in
  (match net.Poly_req.kind with
  | Poly_req.Network_tg n ->
      Alcotest.(check string) "service" "netchain" n.Poly_req.service;
      Alcotest.(check bool) "chain shape" true (n.Poly_req.shape = Comp_store.Chain)
  | Poly_req.Server_tg -> Alcotest.fail "expected network group");
  Alcotest.(check int) "3 switches for small group" 3 net.Poly_req.count;
  Alcotest.(check int) "switch demand dims" 3 (Vec.dim net.Poly_req.demand)

let test_transform_savings () =
  let poly = transform () in
  let coord_groups =
    List.filter (fun tg -> tg.Poly_req.comp_id = "coord") poly.Poly_req.task_groups
  in
  let server_variants =
    List.filter (fun tg -> not (Poly_req.is_network tg)) coord_groups
  in
  (match List.sort (fun a b -> compare b.Poly_req.count a.Poly_req.count) server_variants with
  | [ full; reduced ] ->
      Alcotest.(check int) "full variant" 6 full.Poly_req.count;
      Alcotest.(check bool) "reduced variant smaller" true
        (reduced.Poly_req.count < full.Poly_req.count);
      Alcotest.(check bool) "reduced duration shorter" true
        (reduced.Poly_req.duration < full.Poly_req.duration)
  | _ -> Alcotest.fail "expected two server variants for coord")

let test_transform_exclusive_flavors () =
  let poly = transform () in
  let coord_groups =
    List.filter (fun tg -> tg.Poly_req.comp_id = "coord") poly.Poly_req.task_groups
  in
  let net = List.find Poly_req.is_network coord_groups in
  let full_server =
    List.find (fun tg -> (not (Poly_req.is_network tg)) && tg.Poly_req.count = 6) coord_groups
  in
  Alcotest.(check bool) "exclusive" false
    (Flavor.compatible net.Poly_req.flavor full_server.Poly_req.flavor)

let test_transform_connections () =
  let poly = transform () in
  let web = List.find (fun tg -> tg.Poly_req.comp_id = "web") poly.Poly_req.task_groups in
  (* web connects to all coord groups (3 of them). *)
  Alcotest.(check int) "web connected to coord groups" 3 (List.length web.Poly_req.connected)

let test_transform_distcache_two_tiers () =
  let req =
    {
      Comp_req.priority = Workload.Job.Batch;
      composites =
        [
          {
            Comp_req.comp_id = "cache";
            template = "cache";
            base = server_spec 12;
            inc_alternatives = [ "distcache" ];
          };
        ];
      connections = [];
    }
  in
  let poly = transform ~req () in
  let nets = Poly_req.network_groups poly in
  Alcotest.(check int) "spine and leaf" 2 (List.length nets);
  let roles =
    List.sort compare
      (List.filter_map
         (fun tg ->
           match tg.Poly_req.kind with
           | Poly_req.Network_tg n -> Some n.Poly_req.role
           | Poly_req.Server_tg -> None)
         nets)
  in
  Alcotest.(check (list string)) "roles" [ "leaf"; "spine" ] roles

let test_transform_invalid_raises () =
  Alcotest.(check bool) "invalid raises" true
    (try
       ignore (transform ~req:(simple_req ~inc:[ "bogus" ] ()) ());
       false
     with Invalid_argument _ -> true)

let test_transform_unique_ids () =
  let ids = Transformer.Id_gen.create () in
  let p1 =
    Transformer.transform store ids (Rng.create 1) ~job_id:1 ~arrival:0.0
      (simple_req ~inc:[ "netchain" ] ())
  in
  let p2 =
    Transformer.transform store ids (Rng.create 2) ~job_id:2 ~arrival:1.0
      (simple_req ~inc:[ "harmonia" ] ())
  in
  let all =
    List.map (fun tg -> tg.Poly_req.tg_id) (p1.Poly_req.task_groups @ p2.Poly_req.task_groups)
  in
  Alcotest.(check int) "globally unique" (List.length all)
    (List.length (List.sort_uniq compare all))

(* ------------------------------------------------------------------ *)
(* Api                                                                *)
(* ------------------------------------------------------------------ *)

let test_api_listing1 () =
  (* The paper's List. 1 flow. *)
  let open Hire.Api in
  let c4 = server ~id:"c4" ~instances:12 ~cpu:16.0 ~mem:8.5 ~duration:300.0 in
  let c5 =
    server ~id:"c5" ~instances:6 ~cpu:16.0 ~mem:32.0 ~duration:300.0
    |> with_alternative store ~service:"netchain"
  in
  let req = request_exn store ~priority:Service [ c4; c5 ] ~connections:[ connect c4 c5 ] in
  Alcotest.(check bool) "wants inc" true (wants_inc req);
  Alcotest.(check string) "template rewritten" "coordinator"
    (Option.get (Comp_req.composite req "c5")).Comp_req.template;
  Alcotest.(check bool) "validates" true (Result.is_ok (Comp_req.validate store req))

let test_api_rejects_conflicting_templates () =
  let open Hire.Api in
  let c =
    server ~id:"x" ~instances:4 ~cpu:1.0 ~mem:1.0 ~duration:10.0
    |> with_alternative store ~service:"netchain"
  in
  Alcotest.(check bool) "cross-template alternative rejected" true
    (try
       ignore (with_alternative store ~service:"netcache" c);
       false
     with Invalid_argument _ -> true)

let test_api_multiple_alternatives_same_template () =
  let open Hire.Api in
  let c =
    server ~id:"cache" ~instances:4 ~cpu:1.0 ~mem:1.0 ~duration:10.0
    |> with_alternative store ~service:"netcache"
    |> with_alternative store ~service:"distcache"
  in
  Alcotest.(check int) "two alternatives" 2 (List.length c.Comp_req.inc_alternatives);
  let req = request_exn store [ c ] in
  Alcotest.(check bool) "validates" true (Result.is_ok (Comp_req.validate store req))

let test_api_unknown_service () =
  let open Hire.Api in
  Alcotest.(check bool) "unknown service rejected" true
    (try
       ignore
         (with_alternative store ~service:"warp-drive"
            (server ~id:"x" ~instances:1 ~cpu:1.0 ~mem:1.0 ~duration:1.0));
       false
     with Invalid_argument _ -> true)

let test_api_request_error () =
  let open Hire.Api in
  let a = server ~id:"dup" ~instances:1 ~cpu:1.0 ~mem:1.0 ~duration:1.0 in
  match request store [ a; a ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate ids accepted"

(* ------------------------------------------------------------------ *)
(* Sharing                                                            *)
(* ------------------------------------------------------------------ *)

let mk_sharing ?(supported = fun _ -> [ "netcache"; "netchain" ]) () =
  let topo = Fat_tree.create ~k:4 in
  (topo, Sharing.create ~topo ~capacity:(Vec.of_list [ 100.0; 48.0; 22.0 ]) ~supported)

let reg = Vec.of_list [ 0.0; 8.0; 0.0 ]
let inst = Vec.of_list [ 0.0; 2.0; 6.0 ]

let test_sharing_registration_once () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  let a1 = Sharing.available sh sw in
  Alcotest.(check (float 1e-9)) "stages after first" (48.0 -. 8.0 -. 2.0) a1.(1);
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  let a2 = Sharing.available sh sw in
  (* Second instance shares the 8-stage registration. *)
  Alcotest.(check (float 1e-9)) "stages after second" (48.0 -. 8.0 -. 4.0) a2.(1);
  Alcotest.(check (float 1e-9)) "sram accumulates" (22.0 -. 12.0) a2.(2);
  Alcotest.(check int) "2 instances" 2 (Sharing.instances sh ~switch:sw ~service:"netcache")

let test_sharing_release_refunds_registration_last () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  Sharing.release sh ~switch:sw ~service:"netcache" ~per_instance:inst;
  let a = Sharing.available sh sw in
  Alcotest.(check (float 1e-9)) "registration kept" (48.0 -. 8.0 -. 2.0) a.(1);
  Sharing.release sh ~switch:sw ~service:"netcache" ~per_instance:inst;
  let a = Sharing.available sh sw in
  Alcotest.(check (float 1e-9)) "fully refunded" 48.0 a.(1);
  Alcotest.(check (float 1e-9)) "sram refunded" 22.0 a.(2);
  Alcotest.(check int) "no active services" 0 (Sharing.n_active sh sw)

let test_sharing_effective_demand () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  let first = Sharing.effective_demand sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst in
  Alcotest.(check (float 1e-9)) "first pays registration" 10.0 first.(1);
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  let second = Sharing.effective_demand sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst in
  Alcotest.(check (float 1e-9)) "second does not" 2.0 second.(1)

let test_sharing_support_and_capacity_checks () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  Alcotest.(check bool) "unsupported service" false
    (Sharing.can_place sh ~switch:sw ~service:"sharp" ~per_switch:reg ~per_instance:inst);
  let huge = Vec.of_list [ 0.0; 0.0; 30.0 ] in
  Alcotest.(check bool) "too big" false
    (Sharing.can_place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:huge);
  Alcotest.(check bool) "place raises" true
    (try
       Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:huge;
       false
     with Invalid_argument _ -> true)

let test_sharing_release_without_place_raises () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  Alcotest.(check bool) "raises" true
    (try
       Sharing.release sh ~switch:sw ~service:"netcache" ~per_instance:inst;
       false
     with Invalid_argument _ -> true)

let test_sharing_total_used () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  let used = Sharing.total_used sh in
  Alcotest.(check (float 1e-9)) "stage usage" 10.0 used.(1);
  Alcotest.(check (float 1e-9)) "sram usage" 6.0 used.(2)

let test_sharing_non_switch_rejected () =
  let topo, sh = mk_sharing () in
  let server = (Fat_tree.servers topo).(0) in
  Alcotest.(check bool) "server id rejected" true
    (try
       ignore (Sharing.available sh server);
       false
     with Invalid_argument _ -> true)

(* The counters and the supporting-switch pass against the list
   accessor and the capability map, over random ledger histories: places,
   releases, liveness flips and checkpoint round trips into a fresh
   ledger with the same capability map. *)
type sharing_op =
  | Place of int * int  (* switch index, service index *)
  | Release of int * int
  | Set_alive of int * bool
  | Roundtrip

let sharing_services = [| "netcache"; "netchain"; "sharp" |]

(* Per-service registration and per-instance demands, fixed so that a
   release refunds exactly what a place charged. *)
let sharing_demand i =
  ( Vec.of_list [ 0.0; float_of_int (4 + (2 * i)); 0.0 ],
    Vec.of_list [ 1.0; 2.0; float_of_int (3 + i) ] )

let sharing_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun sw sv -> Place (sw, sv)) (int_bound 19) (int_bound 2));
        (3, map2 (fun sw sv -> Release (sw, sv)) (int_bound 19) (int_bound 2));
        (1, map2 (fun sw b -> Set_alive (sw, b)) (int_bound 19) bool);
        (1, return Roundtrip);
      ])

let sharing_op_print = function
  | Place (sw, sv) -> Printf.sprintf "place(%d,%d)" sw sv
  | Release (sw, sv) -> Printf.sprintf "release(%d,%d)" sw sv
  | Set_alive (sw, b) -> Printf.sprintf "alive(%d,%b)" sw b
  | Roundtrip -> "roundtrip"

let sharing_counters_consistent sh ~supported =
  let ids = Sharing.switch_ids sh in
  Array.for_all
    (fun sw ->
      Sharing.n_active sh sw = List.length (Sharing.active_services sh sw)
      && Sharing.n_supported sh sw = List.length (supported sw))
    ids
  && Array.for_all
       (fun service ->
         let visited = ref [] in
         Sharing.iter_supporting sh ~service
           (fun sw ~avail ~capacity ~active ~n_active ~n_supported ->
             visited := (sw, Array.copy avail, Array.copy capacity, active, n_active, n_supported)
                        :: !visited);
         let expected =
           List.filter_map
             (fun sw ->
               if Sharing.supports sh ~switch:sw ~service then
                 Some
                   ( sw,
                     Sharing.available sh sw,
                     Sharing.capacity sh,
                     Sharing.instances sh ~switch:sw ~service > 0,
                     Sharing.n_active sh sw,
                     Sharing.n_supported sh sw )
               else None)
             (Array.to_list ids)
         in
         List.rev !visited = expected)
       sharing_services

let prop_sharing_counters =
  QCheck.Test.make ~name:"n_active, n_supported and iter_supporting match the lists"
    ~count:200
    QCheck.(
      pair (int_bound 1000)
        (make ~print:(Print.list sharing_op_print) Gen.(list_size (int_range 1 60) sharing_op_gen)))
    (fun (seed, ops) ->
      let topo = Fat_tree.create ~k:4 in
      let ids = Fat_tree.switches topo in
      (* A random capability map: each switch gets a random subset of
         the services, possibly none. *)
      let rng = Rng.create seed in
      let caps = Int_tbl.create 32 in
      Array.iter
        (fun sw ->
          Int_tbl.replace caps sw
            (List.filter (fun _ -> Rng.int rng 3 > 0) (Array.to_list sharing_services)))
        ids;
      let fresh () =
        Sharing.create ~topo ~capacity:(Vec.of_list [ 100.0; 48.0; 22.0 ])
          ~supported:(Int_tbl.find caps)
      in
      let sh = ref (fresh ()) in
      List.for_all
        (fun op ->
          (match op with
          | Place (i, v) ->
              let switch = ids.(i) and service = sharing_services.(v) in
              let per_switch, per_instance = sharing_demand v in
              if Sharing.can_place !sh ~switch ~service ~per_switch ~per_instance then
                Sharing.place !sh ~switch ~service ~per_switch ~per_instance
          | Release (i, v) ->
              let switch = ids.(i) and service = sharing_services.(v) in
              if Sharing.instances !sh ~switch ~service > 0 then
                Sharing.release !sh ~switch ~service ~per_instance:(snd (sharing_demand v))
          | Set_alive (i, b) -> Sharing.set_alive !sh ids.(i) b
          | Roundtrip ->
              let e = Prelude.Codec.Enc.create () in
              Sharing.encode_state !sh e;
              let restored = fresh () in
              Sharing.decode_state restored
                (Prelude.Codec.Dec.of_string (Prelude.Codec.Enc.to_string e));
              sh := restored);
          sharing_counters_consistent !sh ~supported:(Int_tbl.find caps))
        ops)

(* ------------------------------------------------------------------ *)
(* Locality                                                           *)
(* ------------------------------------------------------------------ *)

let test_census_counts () =
  let topo = Fat_tree.create ~k:4 in
  let census = Locality.Task_census.create topo in
  let s0 = (Fat_tree.servers topo).(0) in
  let tor = Fat_tree.tor_of_server topo s0 in
  Locality.Task_census.add census ~tg_id:1 ~machine:s0;
  Locality.Task_census.add census ~tg_id:1 ~machine:s0;
  Alcotest.(check int) "total" 2 (Locality.Task_census.total census ~tg_id:1);
  Alcotest.(check int) "under server" 2 (Locality.Task_census.count_under census ~tg_id:1 ~node:s0);
  Alcotest.(check int) "under tor" 2 (Locality.Task_census.count_under census ~tg_id:1 ~node:tor);
  (* [switches] lists the cores first. *)
  let core = (Fat_tree.switches topo).(0) in
  Alcotest.(check int) "under core" 2 (Locality.Task_census.count_under census ~tg_id:1 ~node:core);
  Locality.Task_census.remove census ~tg_id:1 ~machine:s0;
  Alcotest.(check int) "after remove" 1 (Locality.Task_census.total census ~tg_id:1)

let test_census_switch_tasks () =
  let topo = Fat_tree.create ~k:4 in
  let census = Locality.Task_census.create topo in
  let tor = (Fat_tree.tor_switches topo).(0) in
  Locality.Task_census.add census ~tg_id:2 ~machine:tor;
  let hosts = ref [] in
  Locality.Task_census.iter_switches census ~tg_id:2 (fun s -> hosts := s :: !hosts);
  Alcotest.(check (list int)) "switches" [ tor ] !hosts;
  Alcotest.(check int) "switch-hosted" 1 (Locality.Task_census.switch_tasks census ~tg_id:2);
  Alcotest.(check int) "under itself" 1
    (Locality.Task_census.count_under census ~tg_id:2 ~node:tor)

(* A group's change stamp moves on each [add], [remove] and decode of
   that group and on no other group's; an absent group reads 0; a
   cleared group reads 0 and, re-added, a stamp it never had. *)
let test_census_stamps () =
  let module C = Locality.Task_census in
  let topo = Fat_tree.create ~k:4 in
  let census = C.create topo in
  let servers = Fat_tree.servers topo in
  let tor = (Fat_tree.tor_switches topo).(0) in
  let stamps () = List.map (fun tg_id -> C.stamp census ~tg_id) [ 1; 2; 3 ] in
  let moved name ~only before =
    List.iteri
      (fun i (b, a) ->
        let tg_id = i + 1 in
        if List.mem tg_id only then
          Alcotest.(check bool) (Printf.sprintf "%s: group %d moved" name tg_id) true (a <> b)
        else Alcotest.(check int) (Printf.sprintf "%s: group %d kept" name tg_id) b a)
      (List.combine before (stamps ()))
  in
  Alcotest.(check (list int)) "never seen reads 0" [ 0; 0; 0 ] (stamps ());
  let s0 = stamps () in
  C.add census ~tg_id:1 ~machine:servers.(0);
  moved "add 1" ~only:[ 1 ] s0;
  let s1 = stamps () in
  C.add census ~tg_id:2 ~machine:tor;
  moved "add 2" ~only:[ 2 ] s1;
  let s2 = stamps () in
  C.add census ~tg_id:1 ~machine:servers.(0);
  moved "add 1 again" ~only:[ 1 ] s2;
  let s3 = stamps () in
  C.remove census ~tg_id:1 ~machine:servers.(0);
  moved "remove 1" ~only:[ 1 ] s3;
  let s4 = stamps () in
  let seen = List.concat [ s1; s2; s3; s4 ] in
  C.clear_group census ~tg_id:2;
  moved "clear 2" ~only:[ 2 ] s4;
  Alcotest.(check int) "cleared reads 0" 0 (C.stamp census ~tg_id:2);
  C.clear_group census ~tg_id:3;
  Alcotest.(check int) "clearing an absent group keeps 0" 0 (C.stamp census ~tg_id:3);
  C.add census ~tg_id:2 ~machine:tor;
  let readded = C.stamp census ~tg_id:2 in
  Alcotest.(check bool) "re-added gets a new stamp" true
    (readded > 0 && not (List.mem readded seen));
  (* Decode into a census holding other groups: the decoded groups get
     fresh stamps, a group the blob lacks reads 0. *)
  let src = C.create topo in
  C.add src ~tg_id:1 ~machine:servers.(3);
  C.add src ~tg_id:3 ~machine:servers.(5);
  let e = Prelude.Codec.Enc.create () in
  C.encode_state src e;
  let before = stamps () in
  C.decode_state census (Prelude.Codec.Dec.of_string (Prelude.Codec.Enc.to_string e));
  moved "decode" ~only:[ 1; 2; 3 ] before;
  Alcotest.(check int) "dropped by decode reads 0" 0 (C.stamp census ~tg_id:2);
  Alcotest.(check bool) "decoded stamps are new" true
    (List.for_all
       (fun tg_id ->
         let st = C.stamp census ~tg_id in
         st > 0 && not (List.mem st (readded :: seen)))
       [ 1; 3 ]);
  Alcotest.(check int) "decoded counts" 1 (C.count_under census ~tg_id:3 ~node:servers.(5))

(* A group whose last task leaves is dropped: it reads stamp 0, and the
   census encodes byte for byte as one that never held it. *)
let test_census_drops_empty_groups () =
  let module C = Locality.Task_census in
  let topo = Fat_tree.create ~k:4 in
  let servers = Fat_tree.servers topo and tor = (Fat_tree.tor_switches topo).(0) in
  let encoded c =
    let e = Prelude.Codec.Enc.create () in
    C.encode_state c e;
    Prelude.Codec.Enc.to_string e
  in
  let census = C.create topo and fresh = C.create topo in
  C.add census ~tg_id:1 ~machine:servers.(0);
  C.add census ~tg_id:1 ~machine:tor;
  C.add census ~tg_id:2 ~machine:servers.(1);
  C.add fresh ~tg_id:2 ~machine:servers.(1);
  C.remove census ~tg_id:1 ~machine:servers.(0);
  Alcotest.(check int) "one task left" 1 (C.total census ~tg_id:1);
  C.remove census ~tg_id:1 ~machine:tor;
  Alcotest.(check int) "emptied reads stamp 0" 0 (C.stamp census ~tg_id:1);
  Alcotest.(check (list (pair int int))) "no machines" [] (C.machines census ~tg_id:1);
  Alcotest.(check string) "encodes as a census without it" (encoded fresh) (encoded census);
  C.remove census ~tg_id:2 ~machine:servers.(1);
  Alcotest.(check string) "encodes as an empty census" (encoded (C.create topo))
    (encoded census)

let test_upsilon_prefers_colocated_subtree () =
  let topo = Fat_tree.create ~k:4 in
  let census = Locality.Task_census.create topo in
  let s0 = (Fat_tree.servers topo).(0) in
  let tor_near = Fat_tree.tor_of_server topo s0 in
  let tor_far = (Fat_tree.tor_switches topo).(7) in
  Locality.Task_census.add census ~tg_id:1 ~machine:s0;
  let upsilon = Locality.upsilon topo census ~tg_ids:[ 1 ] ~group_size:1 in
  let near = upsilon tor_near in
  let far = upsilon tor_far in
  Alcotest.(check bool) "near subtree scores better (lower)" true (near < far);
  Alcotest.(check (float 1e-9)) "far subtree has nothing" 1.0 far

(* The unpruned, unmemoized Eq. 6 recursion, kept as the oracle the
   staged [Locality.upsilon] must match bit for bit. *)
let naive_upsilon topo census ~tg_ids ~node ~group_size =
  if group_size <= 0 then 1.0
  else begin
    let total_related tg_node =
      List.fold_left
        (fun acc tg_id -> acc + Locality.Task_census.count_under census ~tg_id ~node:tg_node)
        0 tg_ids
    in
    let gs = float_of_int group_size in
    let rec go n =
      if Fat_tree.is_server topo n then
        Float.min 1.0 (float_of_int (max 0 (group_size - total_related n)) /. gs)
      else begin
        match Fat_tree.children topo n with
        | [] -> 1.0
        | kids ->
            let sum =
              List.fold_left
                (fun acc kid ->
                  acc
                  +.
                  if Fat_tree.is_server topo kid then
                    float_of_int (max 0 (group_size - total_related kid)) /. gs
                  else go kid)
                0.0 kids
            in
            sum /. float_of_int (List.length kids)
      end
    in
    Float.max 0.0 (Float.min 1.0 (go node))
  end

(* Random censuses over fat-trees (k = 4, 6) and a leaf-spine fabric:
   up to four groups, tasks on servers and switches (some censuses on
   switches only, so rollups are positive above subtrees with no server
   task), a few removals, and a queried group set that may name a group
   with no tasks.  One staged closure answers every node twice, in a
   random order, so memoized values are reused across queries. *)
let prop_upsilon_matches_naive =
  QCheck.Test.make ~name:"staged upsilon = naive Eq. 6 (bitwise)" ~count:300
    QCheck.(pair (int_range 0 2) int)
    (fun (shape, seed) ->
      let rs = Random.State.make [| seed |] in
      let topo =
        match shape with
        | 0 -> Fat_tree.create ~k:4
        | 1 -> Fat_tree.create ~k:6
        | _ -> Fat_tree.create_leaf_spine ~spines:3 ~leafs:5 ~servers_per_leaf:4
      in
      let servers = Fat_tree.servers topo and switches = Fat_tree.switches topo in
      let pick a = a.(Random.State.int rs (Array.length a)) in
      let census = Locality.Task_census.create topo in
      let switch_only = Random.State.int rs 4 = 0 in
      let n_groups = 1 + Random.State.int rs 4 in
      let placed = ref [] in
      for tg_id = 1 to n_groups do
        for _ = 1 to Random.State.int rs 13 do
          let machine =
            if switch_only || Random.State.int rs 3 = 0 then pick switches else pick servers
          in
          Locality.Task_census.add census ~tg_id ~machine;
          placed := (tg_id, machine) :: !placed
        done
      done;
      List.iter
        (fun (tg_id, machine) ->
          if Random.State.int rs 5 = 0 then Locality.Task_census.remove census ~tg_id ~machine)
        !placed;
      let tg_ids =
        List.filter (fun _ -> Random.State.bool rs) (List.init (n_groups + 1) (fun i -> i + 1))
      in
      let group_size =
        if Random.State.bool rs then
          max 1
            (List.fold_left
               (fun acc tg_id -> acc + Locality.Task_census.total census ~tg_id)
               0 tg_ids)
        else Random.State.int rs 16
      in
      let staged = Locality.upsilon topo census ~tg_ids ~group_size in
      let nodes = Array.init (2 * Fat_tree.node_count topo) (fun i -> i mod Fat_tree.node_count topo) in
      for i = Array.length nodes - 1 downto 1 do
        let j = Random.State.int rs (i + 1) in
        let x = nodes.(i) in
        nodes.(i) <- nodes.(j);
        nodes.(j) <- x
      done;
      Array.for_all
        (fun node ->
          let want = naive_upsilon topo census ~tg_ids ~node ~group_size in
          let got = staged node in
          Int64.equal (Int64.bits_of_float want) (Int64.bits_of_float got)
          || QCheck.Test.fail_reportf "node %d: staged %h, naive %h (shape %d, seed %d)" node got
               want shape seed)
        nodes)

let test_gain_propagates_and_decays () =
  let topo = Fat_tree.create ~k:4 in
  let census = Locality.Task_census.create topo in
  let tor = (Fat_tree.tor_switches topo).(0) in
  Locality.Task_census.add census ~tg_id:1 ~machine:tor;
  let gain = Locality.Gain.of_source topo ~source:tor ~gamma:64 ~xi:2 in
  Alcotest.(check int) "source gain" 64 (Locality.Gain.at gain tor);
  let agg = List.hd (Fat_tree.parents topo tor) in
  Alcotest.(check int) "one hop decayed" 32 (Locality.Gain.at gain agg);
  Alcotest.(check (float 1e-9)) "normalized source" 1.0 (Locality.Gain.normalized gain tor);
  (* A ToR in another pod is 4 switch-hops away: 64/2^4 = 4. *)
  let far_tor = (Fat_tree.tor_switches topo).(7) in
  Alcotest.(check int) "far decayed" 4 (Locality.Gain.at gain far_tor)

(* A random census over a fat-tree (k = 4, 6) or a leaf-spine fabric:
   up to four groups with tasks on servers and switches (some groups on
   switches only), a few removals, and, drawn on [rs], maybe a round
   trip through the checkpoint encoding. *)
let random_topo shape =
  match shape with
  | 0 -> Fat_tree.create ~k:4
  | 1 -> Fat_tree.create ~k:6
  | _ -> Fat_tree.create_leaf_spine ~spines:3 ~leafs:5 ~servers_per_leaf:4

let churn_census rs topo census ~n_groups =
  let servers = Fat_tree.servers topo and switches = Fat_tree.switches topo in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let placed = ref [] in
  for tg_id = 1 to n_groups do
    let switch_only = Random.State.int rs 4 = 0 in
    for _ = 1 to Random.State.int rs 9 do
      let machine =
        if switch_only || Random.State.int rs 3 = 0 then pick switches else pick servers
      in
      Locality.Task_census.add census ~tg_id ~machine;
      placed := (tg_id, machine) :: !placed
    done
  done;
  List.iter
    (fun (tg_id, machine) ->
      if Random.State.int rs 4 = 0 then Locality.Task_census.remove census ~tg_id ~machine)
    !placed;
  if Random.State.int rs 4 = 0 then begin
    let e = Prelude.Codec.Enc.create () in
    Locality.Task_census.encode_state census e;
    Locality.Task_census.decode_state census
      (Prelude.Codec.Dec.of_string (Prelude.Codec.Enc.to_string e))
  end

(* The census's switch-hosted count, switch iteration and ToR iteration
   agree with what its machine lists and rollups say, after random adds,
   removes and decodes. *)
let prop_census_switch_counts =
  QCheck.Test.make ~name:"census switch count = count from machines" ~count:200
    QCheck.(pair (int_range 0 2) int)
    (fun (shape, seed) ->
      let rs = Random.State.make [| seed |] in
      let topo = random_topo shape in
      let census = Locality.Task_census.create topo in
      let n_groups = 1 + Random.State.int rs 4 in
      for _ = 1 to 1 + Random.State.int rs 3 do
        churn_census rs topo census ~n_groups
      done;
      List.for_all
        (fun tg_id ->
          let machines = Locality.Task_census.machines census ~tg_id in
          let on_switches =
            List.fold_left
              (fun acc (m, c) -> if Fat_tree.is_switch topo m then acc + c else acc)
              0 machines
          in
          let listed = ref [] and tors = ref [] in
          Locality.Task_census.iter_switches census ~tg_id (fun s -> listed := s :: !listed);
          Locality.Task_census.iter_tors census ~tg_id (fun t -> tors := t :: !tors);
          let want_tors =
            List.filter
              (fun t -> Locality.Task_census.count_under census ~tg_id ~node:t > 0)
              (Array.to_list (Fat_tree.tor_switches topo))
          in
          Locality.Task_census.switch_tasks census ~tg_id = on_switches
          && List.sort Int.compare !listed
             = List.filter_map
                 (fun (m, _) -> if Fat_tree.is_switch topo m then Some m else None)
                 machines
          && List.sort Int.compare !tors = want_tors
          || QCheck.Test.fail_reportf "group %d (shape %d, seed %d)" tg_id shape seed)
        (List.init (n_groups + 1) (fun i -> i + 1)))

(* A builder's locality context prices Φloc at every ToR, server and
   switch bit for bit as Υ staged from scratch and the list BFS of
   Alg. 1 do (test/locality_reference.ml), over several rounds of
   census churn on one builder, so contexts, memo entries and IncLocProp
   rows are reused across rounds; γ and ξ are drawn per case. *)
let prop_loc_ctx_matches_reference =
  QCheck.Test.make ~name:"context Φloc = staged Υ and list BFS (bitwise)" ~count:150
    QCheck.(pair (int_range 0 2) int)
    (fun (shape, seed) ->
      let rs = Random.State.make [| seed |] in
      let topo = random_topo shape in
      let census = Locality.Task_census.create topo in
      let params =
        { Cost_model.default_params with gamma = Random.State.int rs 100; xi = 2 + Random.State.int rs 3 }
      in
      let builder = Hire.Flow_network.create_builder () in
      let n_groups = 1 + Random.State.int rs 4 in
      let ok = ref true in
      for round = 1 to 1 + Random.State.int rs 3 do
        churn_census rs topo census ~n_groups;
        for _ = 1 to 3 do
          let related =
            List.filter (fun _ -> Random.State.bool rs) (List.init (n_groups + 1) (fun i -> i + 1))
          in
          let related = if related = [] then [ 1 ] else related in
          let got = Hire.Flow_network.loc_phi builder topo census ~params related in
          let want = Locality_reference.phi_loc topo census ~params related in
          for node = 0 to Fat_tree.node_count topo - 1 do
            let g = got node and w = want node in
            if !ok && not (Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float w)) then begin
              ok := false;
              QCheck.Test.fail_reportf "node %d: context %h, reference %h (round %d, shape %d, seed %d)"
                node g w round shape seed
            end
          done
        done
      done;
      !ok)

let test_gain_empty_sources () =
  let topo = Fat_tree.create ~k:4 in
  let gain = Locality.Gain.sum [] in
  Alcotest.(check (float 1e-9)) "no gain anywhere" 0.0
    (Locality.Gain.normalized gain (Fat_tree.tor_switches topo).(0))

(* ------------------------------------------------------------------ *)
(* Cost model                                                         *)
(* ------------------------------------------------------------------ *)

let params = Cost_model.default_params

let test_phi_pref_shape () =
  Alcotest.(check (float 1e-9)) "fresh job max" 3.0 (Cost_model.phi_pref ~waiting:0.1 params);
  Alcotest.(check (float 1e-9)) "past upper zero" 0.0 (Cost_model.phi_pref ~waiting:3.0 params);
  let mid = Cost_model.phi_pref ~waiting:1.2 params in
  Alcotest.(check bool) "decays" true (mid > 0.0 && mid < 3.0);
  let later = Cost_model.phi_pref ~waiting:1.8 params in
  Alcotest.(check bool) "monotone" true (later < mid)

let test_phi_w_shape () =
  Alcotest.(check (float 1e-9)) "zero at arrival" 0.0 (Cost_model.phi_w ~waiting:0.0 params);
  Alcotest.(check (float 1e-9)) "one past threshold" 1.0 (Cost_model.phi_w ~waiting:1.0 params);
  let mid = Cost_model.phi_w ~waiting:0.25 params in
  Alcotest.(check bool) "rising" true (mid > 0.0 && mid < 1.0)

let test_phi_new () =
  Alcotest.(check (float 1e-9)) "active service free" 0.0
    (Cost_model.phi_new ~service_active:true ~n_active:3 ~max_possible:8);
  Alcotest.(check (float 1e-9)) "empty switch" 1.0
    (Cost_model.phi_new ~service_active:false ~n_active:0 ~max_possible:8);
  let busy = Cost_model.phi_new ~service_active:false ~n_active:8 ~max_possible:8 in
  Alcotest.(check (float 1e-9)) "busy switch halves" 0.5 busy

let test_phi_tor () =
  let topo = Fat_tree.create ~k:4 in
  Alcotest.(check (float 1e-9)) "tor 0" 0.0
    (Cost_model.phi_tor topo ~switch:(Fat_tree.tor_switches topo).(0));
  Alcotest.(check (float 1e-9)) "agg 0.5" 0.5
    (Cost_model.phi_tor topo
       ~switch:(List.hd (Fat_tree.parents topo (Fat_tree.tor_switches topo).(0))));
  Alcotest.(check (float 1e-9)) "core 1" 1.0
    (Cost_model.phi_tor topo ~switch:(Fat_tree.switches topo).(0))

(* Callers skip computing Υ and Γ when nothing related is placed; that
   is only sound while Φloc ignores them (and the weight) there. *)
let prop_phi_loc_unplaced_neutral =
  QCheck.Test.make ~name:"phi_loc neutral when nothing related placed" ~count:500
    QCheck.(triple float float float)
    (fun (upsilon, gamma_norm, server_weight) ->
      let v =
        Cost_model.phi_loc ~related_placed:false ~upsilon ~gamma_norm ~server_weight
      in
      Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float 0.5))

(* The shortcut costs as [flatten] over fresh vectors — the form the
   loops in Cost_model replaced — kept here as their reference. *)
module Reference_cost = struct
  let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

  let flatten components ~penalty (params : Cost_model.params) =
    let components = Array.of_list components in
    let n = Array.length components in
    let avg = if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 components /. float_of_int n in
    let v = (clamp01 avg +. Float.max 0.0 penalty) *. float_of_int params.cost_scale in
    int_of_float (Float.round v)

  let demand_fit ~demand ~available =
    let ratio = Array.map clamp01 (Vec.div demand available) in
    (Vec.avg ratio, clamp01 (Vec.stddev ratio))

  let gs_shortcut ~demand ~available ~phi_loc ~phi_prio params =
    let fit_avg, fit_dev = demand_fit ~demand ~available in
    flatten [ fit_avg; fit_dev; phi_loc; 1.0; phi_prio ] ~penalty:0.0 params

  let gn_shortcut ~demand ~available ~capacity ~phi_loc ~phi_new ~phi_prio params =
    let fit_avg, fit_dev = demand_fit ~demand ~available in
    let free_after =
      let remaining = Vec.clamp_nonneg (Vec.sub available demand) in
      Vec.avg (Vec.div remaining capacity)
    in
    flatten [ fit_avg; fit_dev; free_after; phi_loc; phi_new; phi_prio ] ~penalty:0.0 params

  (* The M→K costs as they were priced from a utilization vector. *)
  let balance_inverted util = clamp01 (1.0 -. Vec.stddev util)

  let ms_to_k ~capacity ~available params =
    let util = Topology.Resource.utilization ~capacity ~available in
    flatten [ Vec.avg util; balance_inverted util ] ~penalty:0.0 params

  let mn_to_k ~capacity ~available ~phi_tor ~phi_floor params =
    let util = Topology.Resource.utilization ~capacity ~available in
    flatten [ Vec.avg util; balance_inverted util; phi_tor; phi_floor ] ~penalty:0.0 params
end

(* Coordinates that stress every branch: zero, magnitudes just below and
   just above [Vec.eps] of either sign, negative values and ordinary
   ones.  Demands are drawn from the same mix, so they exceed the
   availability as often as not. *)
let coord_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return 0.0);
        (1, return (Vec.eps /. 2.0));
        (1, return (-.Vec.eps /. 2.0));
        (1, return (Vec.eps *. 2.0));
        (2, float_range (-20.0) 0.0);
        (6, float_range 0.0 60.0);
      ])

let shortcut_input_gen =
  QCheck.Gen.(
    int_range 2 3 >>= fun n ->
    let vec = array_size (return n) coord_gen in
    let unit = float_range 0.0 1.0 in
    map
      (fun ((demand, available, capacity), (phi_loc, phi_new, phi_prio)) ->
        (demand, available, capacity, phi_loc, phi_new, phi_prio))
      (pair (triple vec vec vec) (triple unit unit (oneofl [ 0.0; 1.0 ]))))

let print_shortcut_input (demand, available, capacity, phi_loc, phi_new, phi_prio) =
  let v a = String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  Printf.sprintf "demand [%s] available [%s] capacity [%s] loc %h new %h prio %h" (v demand)
    (v available) (v capacity) phi_loc phi_new phi_prio

(* With [cost_scale] = 2^61 the scaling is exact and the integer cost
   keeps every bit of any average above 2^-9: a reordered sum fails
   there even when the default scale would round it away. *)
let bitwise_params = { params with Cost_model.cost_scale = 1 lsl 61 }

let prop_shortcut_costs_match_reference =
  QCheck.Test.make ~name:"gs/gn shortcut loops = flatten over vectors (bitwise)" ~count:2000
    (QCheck.make ~print:print_shortcut_input shortcut_input_gen)
    (fun (demand, available, capacity, phi_loc, phi_new, phi_prio) ->
      List.for_all
        (fun params ->
          let gs = Cost_model.gs_shortcut ~demand ~available ~phi_loc ~phi_prio params in
          let gs_ref =
            Reference_cost.gs_shortcut ~demand ~available ~phi_loc ~phi_prio params
          in
          let gn =
            Cost_model.gn_shortcut ~demand ~available ~capacity ~phi_loc ~phi_new ~phi_prio
              params
          in
          let gn_ref =
            Reference_cost.gn_shortcut ~demand ~available ~capacity ~phi_loc ~phi_new
              ~phi_prio params
          in
          (gs = gs_ref && gn = gn_ref)
          || QCheck.Test.fail_reportf "scale %d: gs %d (reference %d), gn %d (reference %d)"
               params.Cost_model.cost_scale gs gs_ref gn gn_ref)
        [ params; bitwise_params ])

(* A ledger of 0 to 4 dimensions: capacities of 0, -0.0, negative or
   ordinary; remaining resources of the whole capacity (an empty
   ledger), 0 or -0.0 (a full one), negative, or anywhere up to a bit
   above the capacity.  A quarter of the ledgers are entirely empty or
   entirely full. *)
let ledger_gen =
  QCheck.Gen.(
    let cap =
      frequency
        [
          (1, return 0.0);
          (1, return (-0.0));
          (1, float_range (-5.0) 0.0);
          (6, float_range 0.0 100.0);
        ]
    in
    let dim =
      cap >>= fun c ->
      map
        (fun a -> (c, a))
        (frequency
           [
             (2, return c);
             (2, return 0.0);
             (1, return (-0.0));
             (1, float_range (-10.0) 0.0);
             (4, float_range 0.0 ((Float.abs c *. 1.2) +. 1.0));
           ])
    in
    int_range 0 4 >>= fun n ->
    list_size (return n) dim >>= fun dims ->
    let capacity = Array.of_list (List.map fst dims) in
    frequency
      [
        (6, return (capacity, Array.of_list (List.map snd dims)));
        (1, return (capacity, Array.copy capacity));
        (1, return (capacity, Array.make n 0.0));
      ])

let print_ledger (capacity, available, phi_tor, phi_floor) =
  let v a = String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  Printf.sprintf "capacity [%s] available [%s] tor %h floor %h" (v capacity) (v available)
    phi_tor phi_floor

let prop_machine_costs_match_reference =
  QCheck.Test.make ~name:"ms/mn to-sink loops = flatten over utilization (bitwise)" ~count:2000
    (QCheck.make ~print:print_ledger
       QCheck.Gen.(
         map2
           (fun (capacity, available) (phi_tor, phi_floor) ->
             (capacity, available, phi_tor, phi_floor))
           ledger_gen
           (pair (oneofl [ 0.0; 0.5; 1.0 ]) (float_range 0.0 1.0))))
    (fun (capacity, available, phi_tor, phi_floor) ->
      List.for_all
        (fun params ->
          let ms = Cost_model.ms_to_k ~capacity ~available params in
          let ms_ref = Reference_cost.ms_to_k ~capacity ~available params in
          let mn = Cost_model.mn_to_k ~capacity ~available ~phi_tor ~phi_floor params in
          let mn_ref = Reference_cost.mn_to_k ~capacity ~available ~phi_tor ~phi_floor params in
          (ms = ms_ref && mn = mn_ref)
          || QCheck.Test.fail_reportf "scale %d: ms %d (reference %d), mn %d (reference %d)"
               params.Cost_model.cost_scale ms ms_ref mn mn_ref)
        [ params; bitwise_params ])

(* [flatten] prices every other edge through the same clamp; NaN,
   infinities and -0.0 included, it must agree with the Stdlib form. *)
let prop_flatten_matches_reference =
  let special = QCheck.Gen.oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0 ] in
  let component = QCheck.Gen.(frequency [ (1, special); (4, float_range (-2.0) 3.0) ]) in
  QCheck.Test.make ~name:"flatten = Stdlib-clamp reference" ~count:1000
    QCheck.(
      make
        ~print:Print.(pair (list float) float)
        Gen.(pair (list_size (int_range 0 6) component) component))
    (fun (components, penalty) ->
      Cost_model.flatten components ~penalty params
      = Reference_cost.flatten components ~penalty params)

let test_phi_delay_monotonicity () =
  let base = Cost_model.phi_delay ~waiting:10.0 ~max_waiting:100.0 ~placed:0 ~total:10 in
  let waited = Cost_model.phi_delay ~waiting:50.0 ~max_waiting:100.0 ~placed:0 ~total:10 in
  Alcotest.(check bool) "longer wait costs more to postpone" true (waited > base);
  let nearly_done = Cost_model.phi_delay ~waiting:10.0 ~max_waiting:100.0 ~placed:9 ~total:10 in
  Alcotest.(check bool) "mostly-placed costs more to postpone" true (nearly_done > base)

let test_flatten_and_edges () =
  Alcotest.(check int) "flatten scales" 500 (Cost_model.flatten [ 0.5 ] ~penalty:0.0 params);
  Alcotest.(check int) "penalty added" 1500 (Cost_model.flatten [ 0.5 ] ~penalty:1.0 params);
  Alcotest.(check int) "empty components" 1000 (Cost_model.flatten [] ~penalty:1.0 params);
  Alcotest.(check int) "s_to_f" 1000 (Cost_model.s_to_f params);
  let g_to_p = Cost_model.g_to_p ~phi_delay:0.0 params in
  Alcotest.(check int) "postpone carries penalty 5" 5000 g_to_p;
  Alcotest.(check bool) "f_to_p carries penalty 3" true
    (Cost_model.f_to_p ~phi_w:0.0 params = 3000)

let test_fallback_penalty () =
  let plain = Cost_model.f_to_g ~phi_xhat:0.2 ~phi_pref:0.0 params in
  let fb = Cost_model.f_to_g ~phi_xhat:0.2 ~phi_pref:0.0 ~fallback:true params in
  Alcotest.(check bool) "fallback variant costs more" true (fb > plain)

(* ------------------------------------------------------------------ *)
(* Pending                                                            *)
(* ------------------------------------------------------------------ *)

let test_pending_lifecycle () =
  let poly = transform () in
  let job = Pending.of_poly poly in
  Alcotest.(check int) "materialized web TG" 1 (List.length (Pending.materialized job));
  Alcotest.(check int) "3 undecided" 3 (List.length (Pending.undecided job));
  Alcotest.(check bool) "flavor open" true (Pending.flavor_open job);
  (* Decide the INC variant. *)
  let net_ts =
    List.find (fun ts -> Poly_req.is_network ts.Pending.tg) (Pending.undecided job)
  in
  let dropped = Pending.decide job net_ts in
  Alcotest.(check int) "server variant dropped" 1 (List.length dropped);
  Alcotest.(check bool) "flavor closed" false (Pending.flavor_open job);
  Alcotest.(check int) "3 materialized now" 3 (List.length (Pending.materialized job))

let test_pending_force_fallback () =
  let poly = transform () in
  let job = Pending.of_poly poly in
  let dropped = Pending.force_server_fallback job in
  Alcotest.(check bool) "network dropped" true
    (List.exists Poly_req.is_network (List.map (fun ts -> ts.Pending.tg) dropped));
  Alcotest.(check bool) "locked" true job.Pending.inc_flavor_locked;
  Alcotest.(check bool) "no network group materialized" true
    (List.for_all
       (fun ts -> not (Poly_req.is_network ts.Pending.tg))
       (Pending.materialized job))

let test_pending_place_and_progress () =
  let poly = transform () in
  let job = Pending.of_poly poly in
  let web = List.hd (Pending.materialized job) in
  Alcotest.(check bool) "work pending" true (Pending.has_pending_work job);
  for i = 1 to web.Pending.tg.Poly_req.count do
    Pending.place job web ~machine:(100 + i)
  done;
  Alcotest.(check int) "no remaining" 0 web.Pending.remaining;
  Alcotest.(check bool) "still pending (other composites)" true (Pending.has_pending_work job);
  Alcotest.(check bool) "over-place raises" true
    (try
       Pending.place job web ~machine:1;
       false
     with Invalid_argument _ -> true)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "hire-model"
    [
      ( "flavor",
        Alcotest.test_case "status" `Quick test_flavor_status
        :: Alcotest.test_case "apply" `Quick test_flavor_apply
        :: Alcotest.test_case "compatible" `Quick test_flavor_compatible
        :: Alcotest.test_case "builder" `Quick test_flavor_builder
        :: qt [ prop_flavor_apply_monotone ] );
      ( "comp_store",
        [
          Alcotest.test_case "paper catalogue" `Quick test_store_has_paper_catalogue;
          Alcotest.test_case "switch counts" `Quick test_store_switch_counts;
          Alcotest.test_case "netcache registration" `Quick test_store_netcache_registration;
          Alcotest.test_case "demand ranges" `Quick test_store_demand_draw_in_range;
          Alcotest.test_case "templates" `Quick test_store_templates;
          Alcotest.test_case "extensible" `Quick test_store_extensible;
          Alcotest.test_case "custom p4" `Quick test_store_custom_p4;
        ] );
      ( "comp_req",
        [
          Alcotest.test_case "validate ok" `Quick test_comp_req_validate_ok;
          Alcotest.test_case "validate catches" `Quick test_comp_req_validate_catches;
          Alcotest.test_case "of_job" `Quick test_comp_req_of_job;
        ] );
      ( "transformer",
        [
          Alcotest.test_case "groups" `Quick test_transform_groups;
          Alcotest.test_case "netchain shape" `Quick test_transform_netchain_shape;
          Alcotest.test_case "savings" `Quick test_transform_savings;
          Alcotest.test_case "exclusive flavors" `Quick test_transform_exclusive_flavors;
          Alcotest.test_case "connections" `Quick test_transform_connections;
          Alcotest.test_case "distcache two tiers" `Quick test_transform_distcache_two_tiers;
          Alcotest.test_case "invalid raises" `Quick test_transform_invalid_raises;
          Alcotest.test_case "unique ids" `Quick test_transform_unique_ids;
        ] );
      ( "api",
        [
          Alcotest.test_case "listing 1 flow" `Quick test_api_listing1;
          Alcotest.test_case "conflicting templates" `Quick test_api_rejects_conflicting_templates;
          Alcotest.test_case "multi alternatives" `Quick test_api_multiple_alternatives_same_template;
          Alcotest.test_case "unknown service" `Quick test_api_unknown_service;
          Alcotest.test_case "request error" `Quick test_api_request_error;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "registration once" `Quick test_sharing_registration_once;
          Alcotest.test_case "release refunds" `Quick test_sharing_release_refunds_registration_last;
          Alcotest.test_case "effective demand" `Quick test_sharing_effective_demand;
          Alcotest.test_case "support/capacity" `Quick test_sharing_support_and_capacity_checks;
          Alcotest.test_case "release without place" `Quick test_sharing_release_without_place_raises;
          Alcotest.test_case "total used" `Quick test_sharing_total_used;
          Alcotest.test_case "non-switch rejected" `Quick test_sharing_non_switch_rejected;
        ]
        @ qt [ prop_sharing_counters ] );
      ( "locality",
        [
          Alcotest.test_case "census counts" `Quick test_census_counts;
          Alcotest.test_case "census switch tasks" `Quick test_census_switch_tasks;
          Alcotest.test_case "upsilon" `Quick test_upsilon_prefers_colocated_subtree;
          Alcotest.test_case "gain propagation" `Quick test_gain_propagates_and_decays;
          Alcotest.test_case "gain empty" `Quick test_gain_empty_sources;
        ]
        @ qt [ prop_upsilon_matches_naive ]
        @ [
            Alcotest.test_case "census stamps" `Quick test_census_stamps;
            Alcotest.test_case "census holds only groups with running tasks" `Quick
              test_census_drops_empty_groups;
          ]
        @ qt [ prop_census_switch_counts; prop_loc_ctx_matches_reference ] );
      ( "cost_model",
        [
          Alcotest.test_case "phi_pref" `Quick test_phi_pref_shape;
          Alcotest.test_case "phi_w" `Quick test_phi_w_shape;
          Alcotest.test_case "phi_new" `Quick test_phi_new;
          Alcotest.test_case "phi_tor" `Quick test_phi_tor;
          Alcotest.test_case "phi_delay" `Quick test_phi_delay_monotonicity;
          Alcotest.test_case "flatten/edges" `Quick test_flatten_and_edges;
          Alcotest.test_case "fallback penalty" `Quick test_fallback_penalty;
        ]
        @ qt
            [
              prop_phi_loc_unplaced_neutral;
              prop_shortcut_costs_match_reference;
              prop_machine_costs_match_reference;
              prop_flatten_matches_reference;
            ] );
      ( "pending",
        [
          Alcotest.test_case "lifecycle" `Quick test_pending_lifecycle;
          Alcotest.test_case "force fallback" `Quick test_pending_force_fallback;
          Alcotest.test_case "place/progress" `Quick test_pending_place_and_progress;
        ] );
    ]
