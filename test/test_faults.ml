(* Tests for the fault-injection subsystem: plan generation and
   validation (lib/faults), retry policy, cluster liveness masking
   (flow network + baselines), defensive ledger releases, end-to-end
   kill → requeue → reschedule runs, and the conservation/determinism
   properties of the fault semantics.  Event-queue ordering properties
   live here too since the fault events lean on the FIFO tie-break. *)

module Comp_req = Hire.Comp_req
module Comp_store = Hire.Comp_store
module Transformer = Hire.Transformer
module Poly_req = Hire.Poly_req
module Pending = Hire.Pending
module Flow_network = Hire.Flow_network
module Cost_model = Hire.Cost_model
module Plan = Faults.Plan
module Policy = Faults.Policy
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

(* One task per server (cpu 50 of 96): [n] > server count leaves the
   tail of the group pending forever on an otherwise idle cluster. *)
let fat_server_req n =
  {
    Comp_req.priority = Workload.Job.Batch;
    composites =
      [
        {
          Comp_req.comp_id = "c0";
          template = "server";
          base = { Comp_req.instances = n; cpu = 50.0; mem = 4.0; duration = 30.0 };
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

let expect_invalid msg f =
  Alcotest.(check bool) msg true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Fault plans                                                        *)
(* ------------------------------------------------------------------ *)

let small_config =
  {
    Plan.server_mtbf = 20.0;
    server_mttr = 5.0;
    switch_mtbf = 30.0;
    switch_mttr = 5.0;
    inc_weight = 1.0;
  }

let fail_count plan =
  List.length (List.filter (fun (e : Plan.event) -> e.kind = Plan.Fail) (Plan.events plan))

let test_plan_deterministic () =
  let servers = Array.init 10 (fun i -> i) and switches = Array.init 5 (fun i -> 100 + i) in
  let gen seed =
    Plan.generate small_config (Rng.create seed) ~servers ~switches ~horizon:100.0
  in
  Alcotest.(check bool) "same seed, same plan" true (Plan.events (gen 42) = Plan.events (gen 42));
  Alcotest.(check bool) "plan is non-trivial" true (fail_count (gen 42) > 0)

let test_plan_alternates () =
  let servers = Array.init 10 (fun i -> i) and switches = Array.init 5 (fun i -> 100 + i) in
  let plan =
    Plan.generate small_config (Rng.create 11) ~servers ~switches ~horizon:100.0
  in
  let per_node = Hashtbl.create 16 in
  List.iter
    (fun (e : Plan.event) ->
      let prev = Option.value (Hashtbl.find_opt per_node e.Plan.node) ~default:[] in
      Hashtbl.replace per_node e.Plan.node (e :: prev))
    (Plan.events plan);
  Hashtbl.iter
    (fun _ evs ->
      ignore
        (List.fold_left
           (fun (expect, last_t) (e : Plan.event) ->
             Alcotest.(check bool) "strict Fail/Recover alternation" true (e.kind = expect);
             Alcotest.(check bool) "strictly increasing times" true (e.time > last_t);
             if e.kind = Plan.Fail then
               Alcotest.(check bool) "failures at or before horizon" true (e.time <= 100.0);
             ((match e.kind with Plan.Fail -> Plan.Recover | Recover -> Plan.Fail), e.time))
           (Plan.Fail, neg_infinity) (List.rev evs)))
    per_node

let test_plan_inc_weight () =
  (* Push the failure rate of INC-capable switches up by seven orders of
     magnitude while everything else is effectively immortal: every
     drawn failure must land on a weighted (even-id) switch. *)
  let servers = Array.init 8 (fun i -> i) and switches = Array.init 4 (fun i -> 50 + i) in
  let config =
    {
      Plan.server_mtbf = 1e9;
      server_mttr = 10.0;
      switch_mtbf = 1e9;
      switch_mttr = 10.0;
      inc_weight = 1e7;
    }
  in
  let plan =
    Plan.generate
      ~inc_capable:(fun n -> n mod 2 = 0)
      config (Rng.create 3) ~servers ~switches ~horizon:200.0
  in
  Alcotest.(check bool) "weighted switches do fail" true (fail_count plan > 0);
  List.iter
    (fun (e : Plan.event) ->
      Alcotest.(check bool) "only INC-capable switches affected" true
        (e.Plan.node >= 50 && e.Plan.node mod 2 = 0))
    (Plan.events plan)

let test_plan_scripted_validates () =
  let ev time node kind = { Plan.time; node; kind } in
  (* Valid out-of-order script gets sorted. *)
  let p =
    Plan.scripted [ ev 3.0 1 Plan.Fail; ev 1.0 1 Plan.Fail; ev 2.0 1 Plan.Recover ]
  in
  Alcotest.(check int) "length" 3 (Plan.length p);
  Alcotest.(check int) "fail count" 2 (fail_count p);
  Alcotest.(check (list (float 1e-9))) "sorted" [ 1.0; 2.0; 3.0 ]
    (List.map (fun (e : Plan.event) -> e.Plan.time) (Plan.events p));
  expect_invalid "recover before fail" (fun () -> Plan.scripted [ ev 1.0 1 Plan.Recover ]);
  expect_invalid "double fail" (fun () ->
      Plan.scripted [ ev 1.0 1 Plan.Fail; ev 2.0 1 Plan.Fail ]);
  expect_invalid "equal times on one node" (fun () ->
      Plan.scripted [ ev 1.0 1 Plan.Fail; ev 1.0 1 Plan.Recover ]);
  expect_invalid "negative time" (fun () -> Plan.scripted [ ev (-1.0) 1 Plan.Fail ]);
  expect_invalid "non-finite time" (fun () -> Plan.scripted [ ev Float.nan 1 Plan.Fail ])

(* ------------------------------------------------------------------ *)
(* Retry policy                                                       *)
(* ------------------------------------------------------------------ *)

let test_policy_delay () =
  let p = Policy.default in
  Alcotest.(check (float 1e-9)) "first retry" 1.0 (Policy.delay p ~attempt:1);
  Alcotest.(check (float 1e-9)) "second doubles" 2.0 (Policy.delay p ~attempt:2);
  Alcotest.(check (float 1e-9)) "third doubles again" 4.0 (Policy.delay p ~attempt:3);
  expect_invalid "attempt must be positive" (fun () -> Policy.delay p ~attempt:0);
  expect_invalid "negative retry budget" (fun () -> Policy.create ~max_retries:(-1) ());
  expect_invalid "non-positive backoff" (fun () -> Policy.create ~backoff:0.0 ());
  expect_invalid "multiplier below one" (fun () -> Policy.create ~multiplier:0.5 ())

(* ------------------------------------------------------------------ *)
(* Cluster liveness and defensive releases                            *)
(* ------------------------------------------------------------------ *)

let test_cluster_fail_recover () =
  let c = make_cluster () in
  let s = (Topology.Fat_tree.servers (Sim.Cluster.topo c)).(0) in
  Alcotest.(check bool) "initially alive" true (Sim.Cluster.is_alive c s);
  Sim.Cluster.fail_node c ~time:5.0 s;
  Alcotest.(check bool) "dead after fail" false (Sim.Cluster.is_alive c s);
  let topo = Sim.Cluster.topo c in
  Alcotest.(check int) "one dead node" 1
    (List.length
       (List.filter
          (fun v -> not (Sim.Cluster.is_alive c v))
          (List.init (Topology.Fat_tree.node_count topo) Fun.id)));
  expect_invalid "double fail rejected" (fun () -> Sim.Cluster.fail_node c ~time:6.0 s);
  expect_invalid "placement on a dead server rejected" (fun () ->
      Sim.Cluster.place_server_task c ~server:s ~demand:(Vec.of_list [ 1.0; 1.0 ]));
  Alcotest.(check (float 1e-9)) "recover returns the fail time" 5.0
    (Sim.Cluster.recover_node c s);
  Alcotest.(check bool) "alive again" true (Sim.Cluster.is_alive c s);
  expect_invalid "recovering an alive node rejected" (fun () ->
      ignore (Sim.Cluster.recover_node c s))

let test_switch_liveness_masks_sharing () =
  let c = make_cluster () in
  let sharing = Sim.Cluster.sharing c in
  let sw = (Topology.Fat_tree.tor_switches (Sim.Cluster.topo c)).(0) in
  Alcotest.(check bool) "supports netchain when alive" true
    (Hire.Sharing.supports sharing ~switch:sw ~service:"netchain");
  Sim.Cluster.fail_node c ~time:1.0 sw;
  Alcotest.(check bool) "dead switch supports nothing" false
    (Hire.Sharing.supports sharing ~switch:sw ~service:"netchain");
  Alcotest.(check bool) "static capability survives the outage" true
    (Hire.Sharing.n_supported sharing sw > 0);
  ignore (Sim.Cluster.recover_node c sw);
  Alcotest.(check bool) "supports again after recovery" true
    (Hire.Sharing.supports sharing ~switch:sw ~service:"netchain")

let test_server_over_release_rejected () =
  let c = make_cluster () in
  let s = (Topology.Fat_tree.servers (Sim.Cluster.topo c)).(0) in
  Sim.Cluster.place_server_task c ~server:s ~demand:(Vec.of_list [ 10.0; 10.0 ]);
  expect_invalid "refund beyond capacity rejected" (fun () ->
      Sim.Cluster.release_server_task c ~server:s ~demand:(Vec.of_list [ 20.0; 10.0 ]));
  (* Fresh cluster: exact release is fine, releasing twice is not. *)
  let c = make_cluster () in
  let demand = Vec.of_list [ 10.0; 10.0 ] in
  Sim.Cluster.place_server_task c ~server:s ~demand;
  Sim.Cluster.release_server_task c ~server:s ~demand;
  expect_invalid "double release rejected" (fun () ->
      Sim.Cluster.release_server_task c ~server:s ~demand)

let test_switch_double_release_rejected () =
  let c = make_cluster () in
  let poly = poly_of_req (inc_req ()) in
  let tg = List.hd (Poly_req.network_groups poly) in
  let sw = (Topology.Fat_tree.tor_switches (Sim.Cluster.topo c)).(0) in
  ignore (Sim.Cluster.place_network_task c ~switch:sw ~tg ~shared:true);
  Sim.Cluster.release_network_task c ~switch:sw ~tg ~shared:true;
  Alcotest.(check bool) "ledger back to zero" true
    (Vec.is_zero (Sim.Cluster.switch_used_total c));
  expect_invalid "second release rejected" (fun () ->
      Sim.Cluster.release_network_task c ~switch:sw ~tg ~shared:true)

(* ------------------------------------------------------------------ *)
(* Dead nodes are masked from placement                               *)
(* ------------------------------------------------------------------ *)

let build_net ?(now = 1.0) cluster jobs =
  let census = Hire.Locality.Task_census.create (Sim.Cluster.topo cluster) in
  Flow_network.build (Sim.Cluster.view cluster) census ~jobs ~now
    ~params:Cost_model.default_params

let test_flow_network_skips_dead_nodes () =
  let c = make_cluster () in
  let dead_server = (Topology.Fat_tree.servers (Sim.Cluster.topo c)).(0) in
  let dead_tor = (Topology.Fat_tree.tor_switches (Sim.Cluster.topo c)).(0) in
  Sim.Cluster.fail_node c ~time:1.0 dead_server;
  Sim.Cluster.fail_node c ~time:1.0 dead_tor;
  (* One task per machine per round: 16 servers minus the dead one. *)
  let sjob = Pending.of_poly (poly_of_req (server_only_req 16)) in
  let outcome = Flow_network.solve_and_extract (build_net c [ sjob ]) in
  Alcotest.(check int) "only the alive servers place" 15 (List.length outcome.placements);
  List.iter
    (fun (_, m) ->
      Alcotest.(check bool) "never the dead server" true (m <> dead_server))
    outcome.placements;
  (* Past the flavor-preference window the INC variant is chosen; its
     switch placements must avoid the dead ToR. *)
  let ijob = Pending.of_poly (poly_of_req ~job_id:2 (inc_req ())) in
  let outcome = Flow_network.solve_and_extract (build_net ~now:2.5 c [ ijob ]) in
  List.iter
    (fun (_, m) ->
      Alcotest.(check bool) "never a dead node" true (m <> dead_server && m <> dead_tor))
    outcome.placements

let test_baseline_feasibility_skips_dead () =
  let c = make_cluster () in
  let s = (Topology.Fat_tree.servers (Sim.Cluster.topo c)).(0) in
  let demand = Vec.of_list [ 1.0; 1.0 ] in
  (* One view for the whole test, as a baseline fetches it once. *)
  let view = Sim.Cluster.view c in
  Alcotest.(check bool) "fits when alive" true
    (Schedulers.Policy_util.server_fits view ~server:s ~demand);
  Sim.Cluster.fail_node c ~time:1.0 s;
  Alcotest.(check bool) "dead server never fits" false
    (Schedulers.Policy_util.server_fits view ~server:s ~demand);
  ignore (Sim.Cluster.recover_node c s);
  Alcotest.(check bool) "fits again after recovery" true
    (Schedulers.Policy_util.server_fits view ~server:s ~demand)

(* ------------------------------------------------------------------ *)
(* End-to-end: kill, requeue, reschedule, cancel                      *)
(* ------------------------------------------------------------------ *)

(* Fail every node in [nodes] at [t], recover at [t +. down]: whatever
   the scheduler chose, the running tasks are on some of them. *)
let blanket_outage nodes ~t ~down =
  Plan.scripted
    (Array.to_list nodes
    |> List.concat_map (fun n ->
           [
             { Plan.time = t; node = n; kind = Plan.Fail };
             { Plan.time = t +. down; node = n; kind = Plan.Recover };
           ]))

let check_conserved name cluster =
  Alcotest.(check bool) (name ^ ": switch ledgers fully released") true
    (Vec.is_zero (Sim.Cluster.switch_used_total cluster));
  Array.iter
    (fun s ->
      Alcotest.(check bool) (name ^ ": server ledger fully released") true
        (Vec.equal (Sim.Cluster.server_available cluster s)
           (Sim.Cluster.server_capacity cluster)))
    (Topology.Fat_tree.servers (Sim.Cluster.topo cluster))

let test_kill_requeue_reschedule () =
  let cluster = make_cluster () in
  let servers = Topology.Fat_tree.servers (Sim.Cluster.topo cluster) in
  let faults = blanket_outage servers ~t:5.0 ~down:0.5 in
  let arrivals = [ (0.0, poly_of_req (server_only_req 4)) ] in
  let sched = Schedulers.Registry.create "yarn-concurrent" ~seed:17 cluster in
  let result = Sim.Simulator.run ~faults cluster sched arrivals in
  let r = result.Sim.Simulator.report in
  Alcotest.(check int) "every server failed once" 16 r.Sim.Metrics.node_fails;
  Alcotest.(check int) "every server recovered" 16 r.Sim.Metrics.node_recoveries;
  Alcotest.(check int) "all four running tasks killed" 4 r.Sim.Metrics.tasks_killed;
  Alcotest.(check int) "all four requeued" 4 r.Sim.Metrics.requeues;
  Alcotest.(check int) "nothing cancelled" 0 r.Sim.Metrics.fault_cancels;
  Alcotest.(check int) "group re-satisfied" r.Sim.Metrics.tgs_total
    r.Sim.Metrics.tgs_satisfied;
  Alcotest.(check int) "reschedule latency sampled" 1
    (Obs.Histogram.count r.Sim.Metrics.time_to_reschedule);
  Alcotest.(check bool) "downtime sampled" true
    (Obs.Histogram.count r.Sim.Metrics.node_downtime > 0);
  check_conserved "yarn-concurrent" cluster

let test_cancel_after_retry_budget () =
  let cluster = make_cluster () in
  let servers = Topology.Fat_tree.servers (Sim.Cluster.topo cluster) in
  let faults = blanket_outage servers ~t:5.0 ~down:0.5 in
  let fault_policy = Policy.create ~max_retries:0 () in
  let arrivals = [ (0.0, poly_of_req (server_only_req 4)) ] in
  let sched = Schedulers.Registry.create "hire" ~seed:17 cluster in
  let result = Sim.Simulator.run ~faults ~fault_policy cluster sched arrivals in
  let r = result.Sim.Simulator.report in
  Alcotest.(check int) "killed tasks" 4 r.Sim.Metrics.tasks_killed;
  Alcotest.(check int) "no requeues with a zero budget" 0 r.Sim.Metrics.requeues;
  Alcotest.(check int) "all four cancelled" 4 r.Sim.Metrics.fault_cancels;
  Alcotest.(check int) "group counted cancelled" 1 r.Sim.Metrics.tgs_cancelled;
  Alcotest.(check int) "group not satisfied" 0 r.Sim.Metrics.tgs_satisfied;
  check_conserved "hire" cluster

let test_inc_tasks_survive_switch_outage () =
  let cluster = make_cluster () in
  let switches = Topology.Fat_tree.switches (Sim.Cluster.topo cluster) in
  (* Kill every switch well after the flavor decision (~2.5 s) so the
     INC instances are running, then bring them back before the retry. *)
  let faults = blanket_outage switches ~t:8.0 ~down:0.5 in
  let arrivals = [ (0.0, poly_of_req (inc_req ~n:4 ())) ] in
  let sched = Schedulers.Registry.create "hire" ~seed:17 cluster in
  let result = Sim.Simulator.run ~faults cluster sched arrivals in
  let r = result.Sim.Simulator.report in
  Alcotest.(check bool) "INC instances were killed" true (r.Sim.Metrics.tasks_killed > 0);
  Alcotest.(check bool) "killed instances requeued" true (r.Sim.Metrics.requeues > 0);
  Alcotest.(check int) "no retry exhaustion" 0 r.Sim.Metrics.fault_cancels;
  Alcotest.(check int) "every group resolved" r.Sim.Metrics.tgs_total
    (r.Sim.Metrics.tgs_satisfied + r.Sim.Metrics.tgs_cancelled);
  check_conserved "hire/inc" cluster

let test_gang_cancel_releases_held_siblings () =
  (* A gang that can never assemble: 20 one-per-server tasks on 16
     servers.  Killing one held instance with a zero retry budget must
     cancel the group AND tear down the 15 surviving holders; without
     the teardown they leak their servers for the rest of the run while
     the scheduler keeps feeding the doomed gang. *)
  let cluster = make_cluster () in
  let servers = Topology.Fat_tree.servers (Sim.Cluster.topo cluster) in
  let faults =
    Plan.scripted
      [
        { Plan.time = 5.0; node = servers.(0); kind = Plan.Fail };
        { Plan.time = 6.0; node = servers.(0); kind = Plan.Recover };
      ]
  in
  let fault_policy = Policy.create ~max_retries:0 () in
  let arrivals = [ (0.0, poly_of_req (fat_server_req 20)) ] in
  let sched = Schedulers.Registry.create "yarn-concurrent" ~seed:17 cluster in
  let config = { Sim.Simulator.default_config with gang = true } in
  let result = Sim.Simulator.run ~config ~faults ~fault_policy cluster sched arrivals in
  let r = result.Sim.Simulator.report in
  Alcotest.(check int) "all 16 holders torn down" 16 r.Sim.Metrics.tasks_killed;
  Alcotest.(check int) "no requeues with a zero budget" 0 r.Sim.Metrics.requeues;
  Alcotest.(check int) "one killed task cancelled" 1 r.Sim.Metrics.fault_cancels;
  Alcotest.(check int) "group counted cancelled" 1 r.Sim.Metrics.tgs_cancelled;
  Alcotest.(check int) "group never satisfied" 0 r.Sim.Metrics.tgs_satisfied;
  Alcotest.(check bool) "scheduler dropped the pending tail" false
    (sched.Sim.Scheduler_intf.pending ());
  check_conserved "gang-cancel" cluster

let test_faults_past_drain_clamped () =
  (* hard_end = last arrival + drain = 300.  The fail at 250 is in the
     window; its recover at 1000 is clamped to 300 so the outage stays
     paired.  The 400/450 pair is entirely outside and must neither
     deliver events nor stretch the run past the drain window. *)
  let cluster = make_cluster () in
  let servers = Topology.Fat_tree.servers (Sim.Cluster.topo cluster) in
  let faults =
    Plan.scripted
      [
        { Plan.time = 250.0; node = servers.(0); kind = Plan.Fail };
        { Plan.time = 1000.0; node = servers.(0); kind = Plan.Recover };
        { Plan.time = 400.0; node = servers.(1); kind = Plan.Fail };
        { Plan.time = 450.0; node = servers.(1); kind = Plan.Recover };
      ]
  in
  let arrivals = [ (0.0, poly_of_req (server_only_req 4)) ] in
  let sched = Schedulers.Registry.create "yarn-concurrent" ~seed:17 cluster in
  let result = Sim.Simulator.run ~faults cluster sched arrivals in
  let r = result.Sim.Simulator.report in
  Alcotest.(check int) "only the in-window fail delivered" 1 r.Sim.Metrics.node_fails;
  Alcotest.(check int) "clamped recover delivered" 1 r.Sim.Metrics.node_recoveries;
  Alcotest.(check int) "one downtime sample" 1
    (Obs.Histogram.count r.Sim.Metrics.node_downtime);
  Alcotest.(check bool) "run does not outlive the drain window" true
    (result.Sim.Simulator.end_time <= 300.0 +. 1e-9);
  check_conserved "past-drain" cluster

let test_requeue_before_first_satisfaction_feeds_latency () =
  (* The group (20 one-per-server tasks) is still partially pending when
     server 0 dies, so its requeue precedes its first full placement.
     The eventual first satisfaction must feed the placement-latency
     histogram (dropping it would bias the figure by exactly the slow
     cases) in addition to time-to-reschedule. *)
  let cluster = make_cluster () in
  let servers = Topology.Fat_tree.servers (Sim.Cluster.topo cluster) in
  let faults =
    Plan.scripted
      [
        { Plan.time = 5.0; node = servers.(0); kind = Plan.Fail };
        { Plan.time = 5.5; node = servers.(0); kind = Plan.Recover };
      ]
  in
  let arrivals = [ (0.0, poly_of_req (fat_server_req 20)) ] in
  let sched = Schedulers.Registry.create "yarn-concurrent" ~seed:17 cluster in
  let result = Sim.Simulator.run ~faults cluster sched arrivals in
  let r = result.Sim.Simulator.report in
  Alcotest.(check int) "one task killed and requeued" 1 r.Sim.Metrics.requeues;
  Alcotest.(check int) "nothing cancelled" 0 r.Sim.Metrics.fault_cancels;
  Alcotest.(check int) "group eventually satisfied" r.Sim.Metrics.tgs_total
    r.Sim.Metrics.tgs_satisfied;
  Alcotest.(check int) "placement latency sampled once" 1
    (Obs.Histogram.count r.Sim.Metrics.placement_latency);
  Alcotest.(check int) "reschedule latency sampled once" 1
    (Obs.Histogram.count r.Sim.Metrics.time_to_reschedule);
  check_conserved "requeue-latency" cluster

let test_fault_run_deterministic () =
  let spec =
    {
      Harness.Experiment.default with
      scheduler = "hire";
      k = 4;
      horizon = 60.0;
      mu = 0.5;
      faults =
        Some
          {
            Faults.plan =
              {
                Plan.default_config with
                server_mtbf = 30.0;
                switch_mtbf = 60.0;
                server_mttr = 5.0;
                switch_mttr = 5.0;
              };
            policy = Policy.default;
          };
    }
  in
  let show () = Format.asprintf "%a" Sim.Metrics.pp_report (Harness.Experiment.run spec) in
  Alcotest.(check string) "identical spec, identical report" (show ()) (show ())

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

(* Equal-timestamp events pop in insertion order; the payload is the
   global insertion index, so per timestamp indices must increase. *)
let prop_event_queue_fifo_ties =
  QCheck.Test.make ~name:"event queue: equal timestamps pop in insertion order" ~count:200
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 60))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let q = Sim.Event_queue.create () in
      for i = 0 to n - 1 do
        (* Few distinct timestamps, so ties are the common case. *)
        Sim.Event_queue.push q ~time:(float_of_int (Rng.int rng 5)) i
      done;
      let rec drain acc =
        match Sim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, i) -> drain ((t, i) :: acc)
      in
      let popped = drain [] in
      let times = List.map fst popped in
      let last_idx = Hashtbl.create 8 in
      List.length popped = n
      && List.sort compare times = times
      && List.for_all
           (fun (t, i) ->
             let ok =
               match Hashtbl.find_opt last_idx t with None -> true | Some j -> j < i
             in
             Hashtbl.replace last_idx t i;
             ok)
           popped)

(* Simulation-style interleaving: pushes never schedule before the
   current time, so pops must come out in non-decreasing time order and
   per-timestamp in insertion order. *)
let prop_event_queue_interleaved =
  QCheck.Test.make ~name:"event queue: interleaved push/pop preserves time order" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let q = Sim.Event_queue.create () in
      let now = ref 0.0 in
      let next_idx = ref 0 in
      let popped = ref [] in
      for _ = 1 to 120 do
        if Rng.bool rng || Sim.Event_queue.is_empty q then begin
          Sim.Event_queue.push q ~time:(!now +. float_of_int (Rng.int rng 3)) !next_idx;
          incr next_idx
        end
        else
          match Sim.Event_queue.pop q with
          | None -> ()
          | Some (t, i) ->
              now := Float.max !now t;
              popped := (t, i) :: !popped
      done;
      let rec drain () =
        match Sim.Event_queue.pop q with
        | None -> ()
        | Some (t, i) ->
            now := Float.max !now t;
            popped := (t, i) :: !popped;
            drain ()
      in
      drain ();
      let popped = List.rev !popped in
      let times = List.map fst popped in
      let last_idx = Hashtbl.create 8 in
      List.length popped = !next_idx
      && List.sort compare times = times
      && List.for_all
           (fun (t, i) ->
             let ok =
               match Hashtbl.find_opt last_idx t with None -> true | Some j -> j < i
             in
             Hashtbl.replace last_idx t i;
             ok)
           popped)

(* ISSUE acceptance property: across seeded fail → kill → recover →
   reschedule cycles, total cluster capacity is exactly conserved once
   the run drains, and no task group is left stuck in the scheduler —
   every group finished, fell back, or was cancelled — under all five
   schedulers.  (Satisfied+cancelled need not equal the raw group total:
   timeout/concurrent modes intentionally leave the unraced sibling
   variant of a decided job unresolved in the per-group accounting.) *)
let prop_capacity_conserved_under_faults =
  QCheck.Test.make ~name:"capacity conserved across fault cycles (all schedulers)" ~count:3
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun name ->
          let rng = Rng.create seed in
          let cluster = make_cluster ~seed:(seed land 0xFFFF) () in
          let topo = Sim.Cluster.topo cluster in
          let ids = Transformer.Id_gen.create () in
          let arrivals =
            List.init 6 (fun i ->
                let req = if i mod 2 = 0 then inc_req () else server_only_req 3 in
                ( float_of_int i,
                  Transformer.transform store ids rng ~job_id:i ~arrival:(float_of_int i)
                    req ))
          in
          let faults =
            Plan.generate
              {
                Plan.server_mtbf = 25.0;
                server_mttr = 3.0;
                switch_mtbf = 40.0;
                switch_mttr = 3.0;
                inc_weight = 1.0;
              }
              (Rng.create (seed + 7919))
              ~servers:(Topology.Fat_tree.servers topo)
              ~switches:(Topology.Fat_tree.switches topo) ~horizon:30.0
          in
          let fault_policy = Policy.create ~max_retries:2 ~backoff:0.5 () in
          let sched = Schedulers.Registry.create name ~seed:17 cluster in
          let result = Sim.Simulator.run ~faults ~fault_policy cluster sched arrivals in
          let r = result.Sim.Simulator.report in
          let conserved =
            Vec.is_zero (Sim.Cluster.switch_used_total cluster)
            && Array.for_all
                 (fun s ->
                   Vec.equal
                     (Sim.Cluster.server_available cluster s)
                     (Sim.Cluster.server_capacity cluster))
                 (Topology.Fat_tree.servers topo)
          in
          let resolved =
            (not (sched.Sim.Scheduler_intf.pending ()))
            && r.Sim.Metrics.tgs_satisfied + r.Sim.Metrics.tgs_cancelled
               <= r.Sim.Metrics.tgs_total
          in
          if not (conserved && resolved) then
            QCheck.Test.fail_reportf "%s: conserved=%b resolved=%b (seed %d)" name
              conserved resolved seed
          else true)
        [ "hire"; "yarn-concurrent"; "k8-timeout"; "sparrow-concurrent"; "coco-timeout" ])

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [
      ( "plan",
        [
          quick "deterministic from seed" test_plan_deterministic;
          quick "per-node alternation" test_plan_alternates;
          quick "inc_weight targets capable switches" test_plan_inc_weight;
          quick "scripted validation" test_plan_scripted_validates;
        ] );
      ("policy", [ quick "delay and validation" test_policy_delay ]);
      ( "cluster",
        [
          quick "fail/recover lifecycle" test_cluster_fail_recover;
          quick "switch liveness masks sharing" test_switch_liveness_masks_sharing;
          quick "server over-release rejected" test_server_over_release_rejected;
          quick "switch double release rejected" test_switch_double_release_rejected;
        ] );
      ( "masking",
        [
          quick "flow network skips dead nodes" test_flow_network_skips_dead_nodes;
          quick "baseline feasibility skips dead" test_baseline_feasibility_skips_dead;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "kill, requeue, reschedule" `Slow test_kill_requeue_reschedule;
          Alcotest.test_case "cancel after retry budget" `Slow test_cancel_after_retry_budget;
          Alcotest.test_case "INC tasks survive switch outage" `Slow
            test_inc_tasks_survive_switch_outage;
          Alcotest.test_case "gang cancel releases held siblings" `Slow
            test_gang_cancel_releases_held_siblings;
          Alcotest.test_case "plan events past drain clamped" `Slow
            test_faults_past_drain_clamped;
          Alcotest.test_case "requeue before first satisfaction feeds latency" `Slow
            test_requeue_before_first_satisfaction_feeds_latency;
          Alcotest.test_case "fault runs deterministic" `Slow test_fault_run_deterministic;
        ] );
      ( "properties",
        qt
          [
            prop_event_queue_fifo_ties;
            prop_event_queue_interleaved;
            prop_capacity_conserved_under_faults;
          ] );
    ]
