(* Integration tests across the scheduling stack: the HIRE flow network,
   the HIRE scheduler, baseline mode handling, the cluster ledgers, the
   event queue, metrics, and full simulator runs (determinism, resource
   conservation, all registered schedulers). *)

module Poly_req = Hire.Poly_req
module Comp_req = Hire.Comp_req
module Comp_store = Hire.Comp_store
module Transformer = Hire.Transformer
module Pending = Hire.Pending
module Flow_network = Hire.Flow_network
module Hire_scheduler = Hire.Hire_scheduler
module Cost_model = Hire.Cost_model
module Vec = Prelude.Vec
module Rng = Prelude.Rng

let store = Comp_store.default ()

let make_cluster ?(k = 4) ?(setup = Sim.Cluster.Homogeneous) ?(fraction = 1.0) ?(seed = 3) ()
    =
  Sim.Cluster.create ~inc_capable_fraction:fraction ~k ~setup
    ~services:(Array.to_list (Comp_store.service_names store))
    (Rng.create seed)

let poly_of_req ?(ids = Transformer.Id_gen.create ()) ?(job_id = 1) ?(seed = 5) req =
  Transformer.transform store ids (Rng.create seed) ~job_id ~arrival:0.0 req

let server_only_req n =
  {
    Comp_req.priority = Workload.Job.Batch;
    composites =
      [
        {
          Comp_req.comp_id = "c0";
          template = "server";
          base = { Comp_req.instances = n; cpu = 2.0; mem = 4.0; duration = 30.0 };
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

(* ------------------------------------------------------------------ *)
(* Event queue                                                        *)
(* ------------------------------------------------------------------ *)

let test_event_queue_order () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.push q ~time:2.0 "b";
  Sim.Event_queue.push q ~time:1.0 "a";
  Sim.Event_queue.push q ~time:2.0 "c";
  Alcotest.(check (option (pair (float 1e-9) string))) "a first" (Some (1.0, "a"))
    (Sim.Event_queue.pop q);
  (* Ties delivered in insertion order. *)
  Alcotest.(check (option (pair (float 1e-9) string))) "b before c" (Some (2.0, "b"))
    (Sim.Event_queue.pop q);
  Alcotest.(check (option (pair (float 1e-9) string))) "c last" (Some (2.0, "c"))
    (Sim.Event_queue.pop q);
  Alcotest.(check bool) "empty" true (Sim.Event_queue.is_empty q)

let test_event_queue_rejects_nan () =
  let q = Sim.Event_queue.create () in
  Alcotest.(check bool) "nan rejected" true
    (try
       Sim.Event_queue.push q ~time:Float.nan "x";
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Cluster                                                            *)
(* ------------------------------------------------------------------ *)

let test_cluster_setup () =
  let c = make_cluster () in
  Alcotest.(check int) "servers" 16 (Sim.Cluster.n_servers c);
  Alcotest.(check int) "switches" 20 (Sim.Cluster.n_switches c);
  Alcotest.(check int) "all capable at fraction 1" 20 (Sim.Cluster.n_inc_capable c)

let test_cluster_capable_fraction () =
  let c = make_cluster ~fraction:0.5 () in
  Alcotest.(check int) "half capable" 10 (Sim.Cluster.n_inc_capable c)

let test_cluster_heterogeneous_two_services () =
  let c = make_cluster ~setup:Sim.Cluster.Heterogeneous () in
  Array.iter
    (fun s ->
      let n = List.length (Hire.Sharing.supported_services (Sim.Cluster.sharing c) s) in
      Alcotest.(check int) "two services" 2 n)
    (Topology.Fat_tree.switches (Sim.Cluster.topo c))

let test_cluster_server_ledger () =
  let c = make_cluster () in
  let s = (Topology.Fat_tree.servers (Sim.Cluster.topo c)).(0) in
  let demand = Vec.of_list [ 10.0; 10.0 ] in
  Sim.Cluster.place_server_task c ~server:s ~demand;
  let avail = Sim.Cluster.server_available c s in
  Alcotest.(check (float 1e-9)) "cpu deducted" 86.0 avail.(0);
  Sim.Cluster.release_server_task c ~server:s ~demand;
  let avail = Sim.Cluster.server_available c s in
  Alcotest.(check (float 1e-9)) "restored" 96.0 avail.(0);
  Alcotest.(check bool) "overload rejected" true
    (try
       Sim.Cluster.place_server_task c ~server:s ~demand:(Vec.of_list [ 1000.0; 1.0 ]);
       false
     with Invalid_argument _ -> true)

let test_cluster_network_ledger_shared_vs_not () =
  let c = make_cluster () in
  let poly = poly_of_req (inc_req ()) in
  let tg = List.hd (Poly_req.network_groups poly) in
  let sw = (Topology.Fat_tree.tor_switches (Sim.Cluster.topo c)).(0) in
  let charged_first = Sim.Cluster.place_network_task c ~switch:sw ~tg ~shared:true in
  let charged_second = Sim.Cluster.place_network_task c ~switch:sw ~tg ~shared:true in
  (* NetChain registers 8 stages once; the second instance is cheaper. *)
  Alcotest.(check bool) "second shared instance cheaper" true
    (Vec.avg charged_second < Vec.avg charged_first);
  Sim.Cluster.release_network_task c ~switch:sw ~tg ~shared:true;
  Sim.Cluster.release_network_task c ~switch:sw ~tg ~shared:true;
  let used = Sim.Cluster.switch_used_total c in
  Alcotest.(check bool) "all refunded" true (Vec.is_zero used);
  (* Unshared charging folds the registration every time. *)
  let u1 = Sim.Cluster.place_network_task c ~switch:sw ~tg ~shared:false in
  let u2 = Sim.Cluster.place_network_task c ~switch:sw ~tg ~shared:false in
  Alcotest.(check bool) "unshared charges equal" true (Vec.equal u1 u2)

(* ------------------------------------------------------------------ *)
(* Flow network                                                       *)
(* ------------------------------------------------------------------ *)

let build_net ?(now = 1.0) cluster jobs =
  let census = Hire.Locality.Task_census.create (Sim.Cluster.topo cluster) in
  Flow_network.build (Sim.Cluster.view cluster) census ~jobs ~now
    ~params:Cost_model.default_params

let test_flow_network_places_server_job () =
  let cluster = make_cluster () in
  let job = Pending.of_poly (poly_of_req (server_only_req 3)) in
  let net = build_net cluster [ job ] in
  let outcome = Flow_network.solve_and_extract net in
  Alcotest.(check int) "3 placements" 3 (List.length outcome.placements);
  List.iter
    (fun (_, m) ->
      Alcotest.(check bool) "on a server" true
        (Topology.Fat_tree.is_server (Sim.Cluster.topo cluster) m))
    outcome.placements;
  let machines = List.map snd outcome.placements in
  Alcotest.(check int) "distinct machines per round" 3
    (List.length (List.sort_uniq compare machines))

let test_flow_network_flavor_pick_prefers_inc () =
  let cluster = make_cluster () in
  let job = Pending.of_poly (poly_of_req (inc_req ())) in
  (* Past the Φpref window the decision is strictly cheaper than
     postponing; with free switches the INC variant must be picked. *)
  let net = build_net ~now:2.5 cluster [ job ] in
  let outcome = Flow_network.solve_and_extract net in
  Alcotest.(check int) "one flavor pick" 1 (List.length outcome.flavor_picks);
  let _, tg_id = List.hd outcome.flavor_picks in
  let ts = Option.get (Pending.find_tg job tg_id) in
  Alcotest.(check bool) "picked the INC variant" true
    (Poly_req.is_network ts.Pending.tg
    || ts.Pending.tg.Poly_req.count < 10 (* the reduced server sibling *))

let test_flow_network_no_inc_when_unsupported () =
  (* Heterogeneous cluster where no switch supports the requested
     service: the flavor decision must go to the server variant. *)
  let cluster = make_cluster () in
  (* Use a service name absent from every switch by monkeying the
     request: create cluster with zero capable switches instead. *)
  let cluster0 = make_cluster ~fraction:0.0001 () in
  ignore cluster;
  let job = Pending.of_poly (poly_of_req (inc_req ~service:"netcache" ())) in
  (* fraction rounds up to at least 1 switch; pick a service whose shape
     requires a ToR and hope the one capable switch is not one?  Make it
     deterministic instead: require more switches than exist. *)
  let job_big = Pending.of_poly (poly_of_req ~seed:8 (inc_req ~n:4 ())) in
  ignore job_big;
  let net = build_net cluster0 [ job ] in
  let outcome = Flow_network.solve_and_extract net in
  (* Either a server-variant pick or a postponed flavor — but never an
     INC placement on a switch. *)
  List.iter
    (fun (_, m) ->
      Alcotest.(check bool) "never on a switch" true
        (Topology.Fat_tree.is_server (Sim.Cluster.topo cluster0) m
        || not (Poly_req.is_network (Option.get (Pending.find_tg job 0)).Pending.tg)))
    outcome.placements

let test_flow_network_respects_capacity () =
  let cluster = make_cluster () in
  (* Fill every server almost completely. *)
  Array.iter
    (fun s ->
      Sim.Cluster.place_server_task cluster ~server:s ~demand:(Vec.of_list [ 95.0; 99.0 ]))
    (Topology.Fat_tree.servers (Sim.Cluster.topo cluster));
  let job = Pending.of_poly (poly_of_req (server_only_req 5)) in
  let net = build_net cluster [ job ] in
  let outcome = Flow_network.solve_and_extract net in
  Alcotest.(check int) "nothing placeable" 0 (List.length outcome.placements)

let test_flow_network_one_task_per_machine_per_round () =
  let cluster = make_cluster () in
  let jobs =
    List.init 3 (fun i ->
        Pending.of_poly (poly_of_req ~job_id:i ~seed:(10 + i) (server_only_req 8)))
  in
  let net = build_net cluster jobs in
  let outcome = Flow_network.solve_and_extract net in
  let machines = List.map snd outcome.placements in
  Alcotest.(check int) "machines distinct" (List.length machines)
    (List.length (List.sort_uniq compare machines))

let test_flow_network_solver_optimal () =
  let cluster = make_cluster () in
  let jobs = [ Pending.of_poly (poly_of_req (inc_req ())) ] in
  let net = build_net cluster jobs in
  let _ = Flow_network.solve_and_extract net in
  match Flow.Verify.check (Flow_network.graph net) with
  | Ok () -> ()
  | Error v -> Alcotest.failf "flow not optimal: %a" Flow.Verify.pp_violation v

(* ------------------------------------------------------------------ *)
(* HIRE scheduler                                                     *)
(* ------------------------------------------------------------------ *)

let drive_rounds sched cluster times =
  List.concat_map
    (fun time ->
      let o = Hire_scheduler.run_round sched ~time in
      List.iter
        (fun ((tg : Poly_req.task_group), m) ->
          match tg.kind with
          | Poly_req.Server_tg ->
              Sim.Cluster.place_server_task cluster ~server:m ~demand:tg.demand
          | Poly_req.Network_tg _ ->
              ignore (Sim.Cluster.place_network_task cluster ~switch:m ~tg ~shared:true))
        o.placements;
      o.placements)
    times

let test_hire_scheduler_serves_inc_job () =
  let cluster = make_cluster () in
  let sched = Hire_scheduler.create (Sim.Cluster.view cluster) in
  Hire_scheduler.submit sched ~time:0.0 (poly_of_req (inc_req ()));
  let times = [ 0.1; 0.4; 0.7; 1.0; 1.3; 1.6; 1.9; 2.2; 2.5 ] in
  let placements = drive_rounds sched cluster times in
  let on_switches =
    List.filter (fun ((tg : Poly_req.task_group), _) -> Poly_req.is_network tg) placements
  in
  Alcotest.(check int) "3 chain switches placed" 3 (List.length on_switches);
  let sw = List.map snd on_switches in
  Alcotest.(check int) "distinct switches" 3 (List.length (List.sort_uniq compare sw));
  Alcotest.(check bool) "job drained" false (Hire_scheduler.pending_work sched)

let test_hire_scheduler_falls_back_when_inc_impossible () =
  (* One capable switch cannot host a 3-switch chain: after the Φpref
     upper bound the job must fall back to the server variant. *)
  let cluster = make_cluster ~fraction:0.0001 () in
  let sched = Hire_scheduler.create (Sim.Cluster.view cluster) in
  Hire_scheduler.submit sched ~time:0.0 (poly_of_req (inc_req ()));
  let outcomes =
    List.map (fun time -> Hire_scheduler.run_round sched ~time) [ 0.5; 1.0; 2.1; 2.4 ]
  in
  let fallbacks = List.fold_left (fun acc o -> acc + o.Hire_scheduler.fallbacks) 0 outcomes in
  Alcotest.(check int) "fell back" 1 fallbacks

let test_hire_scheduler_determinism () =
  let run () =
    let cluster = make_cluster () in
    let sched = Hire_scheduler.create (Sim.Cluster.view cluster) in
    let ids = Transformer.Id_gen.create () in
    List.iteri
      (fun i req ->
        Hire_scheduler.submit sched ~time:0.0 (poly_of_req ~ids ~job_id:i ~seed:21 req))
      [ inc_req (); server_only_req 5; inc_req ~service:"harmonia" () ];
    drive_rounds sched cluster [ 0.2; 0.6; 1.0; 1.4; 1.8 ]
    |> List.map (fun ((tg : Poly_req.task_group), m) -> (tg.tg_id, m))
  in
  Alcotest.(check (list (pair int int))) "identical placements" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Modes                                                              *)
(* ------------------------------------------------------------------ *)

let mjob_of modes time req =
  let poly = poly_of_req req in
  Schedulers.Modes.submit modes ~time poly;
  List.hd (Schedulers.Modes.jobs modes)

let test_modes_concurrent_race () =
  let modes = Schedulers.Modes.create Schedulers.Modes.Concurrent in
  let job = mjob_of modes 0.0 (inc_req ()) in
  let active = Schedulers.Modes.active_tgs modes job in
  (* The INC variant's groups come before the full server variant. *)
  let index p =
    let rec go i = function
      | [] -> max_int
      | rt :: rest -> if p rt then i else go (i + 1) rest
    in
    go 0 active
  in
  let net_idx = index (fun rt -> Poly_req.is_network rt.Schedulers.Modes.tg) in
  let full_idx =
    index (fun rt ->
        (not (Poly_req.is_network rt.Schedulers.Modes.tg))
        && rt.Schedulers.Modes.tg.Poly_req.count = 10)
  in
  Alcotest.(check bool) "inc variant offered before server variant" true (net_idx < full_idx);
  (* Placing an INC task decides the job for INC and drops the full
     server variant. *)
  let inc_rt = List.find (fun rt -> Poly_req.is_network rt.Schedulers.Modes.tg) active in
  let dropped = Schedulers.Modes.note_placement modes ~time:0.1 job inc_rt ~machine:5 in
  Alcotest.(check int) "server variant dropped" 1 (List.length dropped);
  Alcotest.(check bool) "decided inc" true (job.Schedulers.Modes.decision = Schedulers.Modes.Inc)

let test_modes_concurrent_server_wins () =
  let modes = Schedulers.Modes.create Schedulers.Modes.Concurrent in
  let job = mjob_of modes 0.0 (inc_req ()) in
  let active = Schedulers.Modes.active_tgs modes job in
  let srv_rt =
    List.find
      (fun rt ->
        (not (Poly_req.is_network rt.Schedulers.Modes.tg))
        && rt.Schedulers.Modes.tg.Poly_req.count = 10)
      active
  in
  let dropped = Schedulers.Modes.note_placement modes ~time:0.1 job srv_rt ~machine:30 in
  Alcotest.(check bool) "inc variant dropped" true
    (List.exists Poly_req.is_network dropped);
  Alcotest.(check bool) "decided server" true
    (job.Schedulers.Modes.decision = Schedulers.Modes.Server)

let test_modes_timeout_fallback () =
  let modes = Schedulers.Modes.create Schedulers.Modes.Timeout in
  let job = mjob_of modes 0.0 (inc_req ()) in
  (* Only the INC variant is queued: the full server group is absent. *)
  Alcotest.(check bool) "starts on inc variant" true
    (List.for_all
       (fun rt -> rt.Schedulers.Modes.tg.Poly_req.count <> 10)
       (Schedulers.Modes.active_tgs modes job));
  Alcotest.(check bool) "network groups queued" true
    (List.exists
       (fun rt -> Poly_req.is_network rt.Schedulers.Modes.tg)
       (Schedulers.Modes.active_tgs modes job));
  (* Deadline is 10% of the job duration (30 s -> 2.7+ s given savings). *)
  let cancelled = Schedulers.Modes.tick modes ~time:10.0 in
  Alcotest.(check bool) "inc cancelled" true (List.exists Poly_req.is_network cancelled);
  Alcotest.(check bool) "fell back to servers" true
    (List.for_all
       (fun rt -> not (Poly_req.is_network rt.Schedulers.Modes.tg))
       (Schedulers.Modes.active_tgs modes job))

let test_modes_revert_after () =
  let modes = Schedulers.Modes.create ~revert_after:60.0 Schedulers.Modes.Concurrent in
  let job = mjob_of modes 0.0 (inc_req ()) in
  let inc_rt =
    List.find
      (fun rt -> Poly_req.is_network rt.Schedulers.Modes.tg)
      (Schedulers.Modes.active_tgs modes job)
  in
  ignore (Schedulers.Modes.note_placement modes ~time:0.1 job inc_rt ~machine:5);
  (* Still 2 chain slots missing after a minute: revert to servers. *)
  let cancelled = Schedulers.Modes.tick modes ~time:61.0 in
  Alcotest.(check bool) "reverted" true (job.Schedulers.Modes.decision = Schedulers.Modes.Server);
  Alcotest.(check bool) "remaining inc work cancelled" true
    (List.exists Poly_req.is_network cancelled)

let test_modes_pending_and_cleanup () =
  let modes = Schedulers.Modes.create Schedulers.Modes.Concurrent in
  let job = mjob_of modes 0.0 (server_only_req 2) in
  Alcotest.(check bool) "pending" true (Schedulers.Modes.pending modes);
  List.iter
    (fun rt ->
      for _ = 1 to rt.Schedulers.Modes.remaining do
        ignore (Schedulers.Modes.note_placement modes ~time:0.1 job rt ~machine:40)
      done)
    (Schedulers.Modes.active_tgs modes job);
  Alcotest.(check bool) "drained" false (Schedulers.Modes.pending modes);
  Schedulers.Modes.cleanup modes;
  Alcotest.(check int) "cleaned" 0 (List.length (Schedulers.Modes.jobs modes))

(* ------------------------------------------------------------------ *)
(* Scenario                                                           *)
(* ------------------------------------------------------------------ *)

let trace ~horizon seed =
  Workload.Trace_gen.generate
    { Workload.Trace_gen.default with arrival_rate = 0.5 }
    (Rng.create seed) ~horizon

let test_scenario_mu_extremes () =
  let jobs = trace ~horizon:400.0 11 in
  let none = Sim.Scenario.build store (Rng.create 1) ~mu:0.0 jobs in
  Alcotest.(check (float 1e-9)) "mu=0" 0.0 (Sim.Scenario.inc_fraction none);
  let all = Sim.Scenario.build store (Rng.create 1) ~mu:1.0 jobs in
  Alcotest.(check (float 1e-9)) "mu=1" 1.0 (Sim.Scenario.inc_fraction all)

let test_scenario_mu_middle () =
  let jobs = trace ~horizon:2000.0 12 in
  let s = Sim.Scenario.build store (Rng.create 2) ~mu:0.5 jobs in
  let f = Sim.Scenario.inc_fraction s in
  Alcotest.(check bool) (Printf.sprintf "mu=0.5 -> %.2f" f) true (f > 0.35 && f < 0.65)

let test_scenario_unique_tg_ids () =
  let jobs = trace ~horizon:400.0 13 in
  let s = Sim.Scenario.build store (Rng.create 3) ~mu:0.8 jobs in
  let ids =
    List.concat_map
      (fun (_, p) -> List.map (fun tg -> tg.Poly_req.tg_id) p.Poly_req.task_groups)
      s.Sim.Scenario.arrivals
  in
  Alcotest.(check int) "unique" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_scenario_rejects_bad_mu () =
  Alcotest.(check bool) "mu out of range" true
    (try
       ignore (Sim.Scenario.build store (Rng.create 1) ~mu:1.5 []);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Baseline policies                                                  *)
(* ------------------------------------------------------------------ *)

let run_policy_round sched ~time = (sched : Sim.Scheduler_intf.t).round ~time

let test_yarn_rack_awareness () =
  (* Both tasks of a job should land under the same ToR (delay/rack-aware
     placement), even though many other servers are free. *)
  let cluster = make_cluster () in
  let sched = Schedulers.Registry.create "yarn-concurrent" ~seed:1 cluster in
  sched.submit ~time:0.0 (poly_of_req (server_only_req 2));
  let res = run_policy_round sched ~time:0.0 in
  Alcotest.(check int) "both placed" 2 (List.length res.placements);
  let topo = Sim.Cluster.topo cluster in
  match res.placements with
  | [ a; b ] ->
      Alcotest.(check int) "same rack"
        (Topology.Fat_tree.tor_of_server topo a.machine)
        (Topology.Fat_tree.tor_of_server topo b.machine)
  | _ -> Alcotest.fail "expected two placements"

let test_yarn_service_priority () =
  (* The service-class job drains before the earlier batch job. *)
  let cluster = make_cluster () in
  let sched = Schedulers.Registry.create "yarn-concurrent" ~seed:1 cluster in
  let ids = Transformer.Id_gen.create () in
  let mk priority job_id =
    Transformer.transform store ids (Rng.create 5) ~job_id ~arrival:0.0
      { (server_only_req 1) with Comp_req.priority = priority }
  in
  sched.submit ~time:0.0 (mk Workload.Job.Batch 0);
  sched.submit ~time:0.0 (mk Workload.Job.Service 1);
  let res = run_policy_round sched ~time:0.0 in
  match res.placements with
  | first :: _ ->
      Alcotest.(check int) "service job first" 1 first.Sim.Scheduler_intf.tg.Poly_req.job_id
  | [] -> Alcotest.fail "nothing placed"

let test_k8_round_robin_spreads () =
  (* The resumed cursor spreads consecutive single-task jobs over
     distinct machines. *)
  let cluster = make_cluster () in
  let sched = Schedulers.Registry.create "k8-concurrent" ~seed:1 cluster in
  let ids = Transformer.Id_gen.create () in
  for i = 0 to 3 do
    sched.submit ~time:0.0
      (Transformer.transform store ids (Rng.create 6) ~job_id:i ~arrival:0.0
         (server_only_req 1))
  done;
  let res = run_policy_round sched ~time:0.0 in
  let machines = List.map (fun p -> p.Sim.Scheduler_intf.machine) res.placements in
  Alcotest.(check int) "four placements" 4 (List.length machines);
  Alcotest.(check int) "all distinct" 4 (List.length (List.sort_uniq compare machines))

let test_sparrow_places_via_sampling () =
  let cluster = make_cluster () in
  let sched = Schedulers.Registry.create "sparrow-concurrent" ~seed:7 cluster in
  sched.submit ~time:0.0 (poly_of_req (server_only_req 3));
  let res = run_policy_round sched ~time:0.0 in
  Alcotest.(check int) "all reservations start" 3 (List.length res.placements);
  Alcotest.(check bool) "drained" false (sched.pending ())

let test_baseline_timeout_falls_back_end_to_end () =
  (* No capable switch: the timeout-mode baseline must eventually serve
     the job on servers. *)
  let cluster = make_cluster ~fraction:0.0001 () in
  let sched = Schedulers.Registry.create "k8-timeout" ~seed:1 cluster in
  sched.submit ~time:0.0 (poly_of_req (inc_req ()));
  let r1 = run_policy_round sched ~time:0.0 in
  (* The chain needs 3 distinct switches but at most one exists. *)
  let network_placements =
    List.filter (fun p -> Poly_req.is_network p.Sim.Scheduler_intf.tg) r1.placements
  in
  Alcotest.(check bool) "inc not fully placeable" true (List.length network_placements < 3);
  let r2 = run_policy_round sched ~time:10.0 (* past the 10% deadline *) in
  Alcotest.(check bool) "fallback cancelled inc work" true
    (List.exists Poly_req.is_network (r1.cancelled @ r2.cancelled));
  let served_servers =
    List.filter
      (fun p -> not (Poly_req.is_network p.Sim.Scheduler_intf.tg))
      (r1.placements @ r2.placements)
  in
  Alcotest.(check bool) "server variant placed" true (List.length served_servers >= 10)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_lifecycle () =
  let topo = Topology.Fat_tree.create ~k:4 in
  let m = Sim.Metrics.create topo in
  let poly = poly_of_req (inc_req ()) in
  Sim.Metrics.on_submit m ~time:0.0 poly;
  (* Serve the INC variant: network TG fully, cancel the full server
     variant. *)
  let net_tg = List.hd (Poly_req.network_groups poly) in
  let full_server =
    List.find
      (fun tg -> (not (Poly_req.is_network tg)) && tg.Poly_req.count = 10)
      poly.Poly_req.task_groups
  in
  Sim.Metrics.on_cancel m ~time:0.5 ~tg:full_server;
  let switches = Topology.Fat_tree.tor_switches topo in
  for i = 0 to net_tg.Poly_req.count - 1 do
    Sim.Metrics.on_place m ~time:1.0 ~tg:net_tg ~machine:switches.(i)
      ~charged:(Some (Vec.of_list [ 0.0; 10.0; 6.0 ]))
  done;
  (* The reduced server variant group. *)
  let reduced =
    List.find
      (fun tg -> (not (Poly_req.is_network tg)) && tg.Poly_req.count < 10)
      poly.Poly_req.task_groups
  in
  let servers = Topology.Fat_tree.servers topo in
  for i = 0 to reduced.Poly_req.count - 1 do
    Sim.Metrics.on_place m ~time:2.0 ~tg:reduced ~machine:servers.(i) ~charged:None
  done;
  Sim.Metrics.finalize m ~time:10.0;
  let r = Sim.Metrics.report m in
  Alcotest.(check int) "one inc job" 1 r.Sim.Metrics.inc_jobs_total;
  Alcotest.(check int) "served" 1 r.Sim.Metrics.inc_jobs_served;
  Alcotest.(check int) "no unserved tgs" 0 r.Sim.Metrics.inc_tgs_unserved;
  Alcotest.(check int) "latency samples" 2 (Obs.Histogram.count r.Sim.Metrics.placement_latency);
  Alcotest.(check bool) "switch load accounted" true
    (r.Sim.Metrics.switch_load.(1) > 0.0);
  Alcotest.(check int) "detour sample" 1 r.Sim.Metrics.detour_samples

let test_metrics_unserved_inc () =
  let topo = Topology.Fat_tree.create ~k:4 in
  let m = Sim.Metrics.create topo in
  let poly = poly_of_req (inc_req ()) in
  Sim.Metrics.on_submit m ~time:0.0 poly;
  let net_tg = List.hd (Poly_req.network_groups poly) in
  Sim.Metrics.on_cancel m ~time:1.0 ~tg:net_tg;
  Sim.Metrics.finalize m ~time:5.0;
  let r = Sim.Metrics.report m in
  Alcotest.(check int) "not served" 0 r.Sim.Metrics.inc_jobs_served;
  Alcotest.(check int) "unserved tg" 1 r.Sim.Metrics.inc_tgs_unserved;
  Alcotest.(check (float 1e-9)) "ratio" 1.0 (Sim.Metrics.inc_tg_unserved_ratio r)

(* ------------------------------------------------------------------ *)
(* Full simulations                                                   *)
(* ------------------------------------------------------------------ *)

let small_spec scheduler =
  (* A k=4 cluster is tiny, so the offered load is cranked up to get a
     meaningful number of jobs into a short horizon. *)
  {
    Harness.Experiment.default with
    scheduler;
    k = 4;
    horizon = 240.0;
    mu = 0.7;
    target_utilization = 2.0;
  }

let test_all_schedulers_run () =
  List.iter
    (fun name ->
      let r = Harness.Experiment.run (small_spec name) in
      Alcotest.(check bool) (name ^ " processed jobs") true (r.Sim.Metrics.jobs_total > 0);
      Alcotest.(check bool)
        (name ^ " placed something")
        true
        (r.Sim.Metrics.tgs_satisfied > 0))
    Schedulers.Registry.names

let test_simulation_deterministic () =
  let run () =
    let r = Harness.Experiment.run (small_spec "hire") in
    ( r.Sim.Metrics.inc_jobs_served,
      r.Sim.Metrics.tgs_satisfied,
      Obs.Histogram.count r.Sim.Metrics.placement_latency )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "reproducible" true (a = b)

let test_simulation_seeds_vary () =
  let r1 = Harness.Experiment.run (small_spec "hire") in
  let r2 = Harness.Experiment.run { (small_spec "hire") with seed = 99 } in
  Alcotest.(check bool) "different traces" true
    (r1.Sim.Metrics.jobs_total <> r2.Sim.Metrics.jobs_total
    || r1.Sim.Metrics.tgs_satisfied <> r2.Sim.Metrics.tgs_satisfied)

let test_gang_semantics () =
  (* With gang on, no task of a group completes before the group is fully
     placed: run the same arrival stream with and without gang; gang can
     only delay completions, so end-time(gang) >= end-time(no gang). *)
  let run gang =
    let rng = Rng.create 31 in
    let cluster = make_cluster ~seed:31 () in
    let ids = Transformer.Id_gen.create () in
    let arrivals =
      List.init 4 (fun i ->
          ( float_of_int i,
            Transformer.transform store ids rng ~job_id:i ~arrival:(float_of_int i)
              (server_only_req 20) ))
    in
    let sched = Schedulers.Registry.create "hire" ~seed:31 cluster in
    let config = { Sim.Simulator.default_config with gang } in
    let result = Sim.Simulator.run ~config cluster sched arrivals in
    (result.Sim.Simulator.end_time, result.Sim.Simulator.report.Sim.Metrics.tgs_satisfied)
  in
  let end_plain, sat_plain = run false in
  let end_gang, sat_gang = run true in
  Alcotest.(check int) "same groups satisfied" sat_plain sat_gang;
  Alcotest.(check bool) "gang cannot finish earlier" true (end_gang >= end_plain -. 1e-9)

let test_csv_export_row () =
  let r = Harness.Experiment.run (small_spec "hire") in
  let row =
    Sim.Csv_export.row ~scheduler:"hire" ~mu:0.7 ~setup:Sim.Cluster.Homogeneous ~seed:1 r
  in
  let n_fields = List.length (String.split_on_char ',' row) in
  let n_cols = List.length (String.split_on_char ',' Sim.Csv_export.header) in
  Alcotest.(check int) "column count matches header" n_cols n_fields;
  let path = Filename.temp_file "hire_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sim.Csv_export.write_file path [ row ];
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      Alcotest.(check int) "header + one row" 2 (List.length !lines))

let test_registry_unknown () =
  let cluster = make_cluster () in
  Alcotest.(check bool) "unknown rejected" true
    (try
       ignore (Schedulers.Registry.create "nonsense" ~seed:1 cluster);
       false
     with Invalid_argument _ -> true)

(* The solver race behind [~portfolio] is gone; asking for it must fail
   loudly rather than silently run the serial chain. *)
let test_registry_rejects_portfolio () =
  let cluster = make_cluster () in
  Alcotest.(check bool) "portfolio rejected" true
    (try
       ignore (Schedulers.Registry.create ~portfolio:true "hire" ~seed:1 cluster);
       false
     with Invalid_argument _ -> true)

(* Resources must be fully released once every job has finished. *)
let test_resources_conserved_after_drain () =
  List.iter
    (fun name ->
      let rng = Rng.create 17 in
      let cluster = make_cluster ~seed:17 () in
      let ids = Transformer.Id_gen.create () in
      let arrivals =
        List.init 6 (fun i ->
            let req = if i mod 2 = 0 then inc_req () else server_only_req 3 in
            ( float_of_int i,
              Transformer.transform store ids rng ~job_id:i ~arrival:(float_of_int i) req ))
      in
      let sched = Schedulers.Registry.create name ~seed:17 cluster in
      let _ = Sim.Simulator.run cluster sched arrivals in
      Alcotest.(check bool)
        (name ^ ": switches fully released")
        true
        (Vec.is_zero (Sim.Cluster.switch_used_total cluster));
      Array.iter
        (fun s ->
          Alcotest.(check bool)
            (name ^ ": server fully released")
            true
            (Vec.equal
               (Sim.Cluster.server_available cluster s)
               (Sim.Cluster.server_capacity cluster)))
        (Topology.Fat_tree.servers (Sim.Cluster.topo cluster)))
    [ "hire"; "yarn-concurrent"; "k8-timeout"; "sparrow-concurrent"; "coco-timeout" ]

let () =
  Alcotest.run "scheduling"
    [
      ( "event_queue",
        [
          Alcotest.test_case "order" `Quick test_event_queue_order;
          Alcotest.test_case "nan" `Quick test_event_queue_rejects_nan;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "setup" `Quick test_cluster_setup;
          Alcotest.test_case "capable fraction" `Quick test_cluster_capable_fraction;
          Alcotest.test_case "heterogeneous" `Quick test_cluster_heterogeneous_two_services;
          Alcotest.test_case "server ledger" `Quick test_cluster_server_ledger;
          Alcotest.test_case "network ledger" `Quick test_cluster_network_ledger_shared_vs_not;
        ] );
      ( "flow_network",
        [
          Alcotest.test_case "places server job" `Quick test_flow_network_places_server_job;
          Alcotest.test_case "flavor pick prefers inc" `Quick
            test_flow_network_flavor_pick_prefers_inc;
          Alcotest.test_case "no switch when unsupported" `Quick
            test_flow_network_no_inc_when_unsupported;
          Alcotest.test_case "respects capacity" `Quick test_flow_network_respects_capacity;
          Alcotest.test_case "one task per machine" `Quick
            test_flow_network_one_task_per_machine_per_round;
          Alcotest.test_case "solver optimal" `Quick test_flow_network_solver_optimal;
        ] );
      ( "hire_scheduler",
        [
          Alcotest.test_case "serves inc job" `Quick test_hire_scheduler_serves_inc_job;
          Alcotest.test_case "fallback when impossible" `Quick
            test_hire_scheduler_falls_back_when_inc_impossible;
          Alcotest.test_case "deterministic" `Quick test_hire_scheduler_determinism;
        ] );
      ( "modes",
        [
          Alcotest.test_case "concurrent inc race" `Quick test_modes_concurrent_race;
          Alcotest.test_case "concurrent server wins" `Quick test_modes_concurrent_server_wins;
          Alcotest.test_case "timeout fallback" `Quick test_modes_timeout_fallback;
          Alcotest.test_case "starvation revert" `Quick test_modes_revert_after;
          Alcotest.test_case "pending/cleanup" `Quick test_modes_pending_and_cleanup;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "mu extremes" `Quick test_scenario_mu_extremes;
          Alcotest.test_case "mu middle" `Slow test_scenario_mu_middle;
          Alcotest.test_case "unique tg ids" `Quick test_scenario_unique_tg_ids;
          Alcotest.test_case "bad mu" `Quick test_scenario_rejects_bad_mu;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "yarn rack awareness" `Quick test_yarn_rack_awareness;
          Alcotest.test_case "yarn service priority" `Quick test_yarn_service_priority;
          Alcotest.test_case "k8 round robin" `Quick test_k8_round_robin_spreads;
          Alcotest.test_case "sparrow sampling" `Quick test_sparrow_places_via_sampling;
          Alcotest.test_case "timeout fallback e2e" `Quick
            test_baseline_timeout_falls_back_end_to_end;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "lifecycle" `Quick test_metrics_lifecycle;
          Alcotest.test_case "unserved inc" `Quick test_metrics_unserved_inc;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "all schedulers run" `Slow test_all_schedulers_run;
          Alcotest.test_case "deterministic" `Slow test_simulation_deterministic;
          Alcotest.test_case "seeds vary" `Slow test_simulation_seeds_vary;
          Alcotest.test_case "gang semantics" `Slow test_gang_semantics;
          Alcotest.test_case "csv export" `Slow test_csv_export_row;
          Alcotest.test_case "unknown scheduler" `Quick test_registry_unknown;
          Alcotest.test_case "portfolio rejected" `Quick test_registry_rejects_portfolio;
          Alcotest.test_case "resources conserved" `Slow test_resources_conserved_after_drain;
        ] );
    ]
