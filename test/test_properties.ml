(* Randomized end-to-end invariants across the stack, complementing the
   per-module suites:

   - the sharing ledger conserves resources under arbitrary valid
     place/release sequences and never over-commits a switch;
   - HIRE flow-network rounds only emit feasible placements, at most one
     per machine, chains on distinct switches, and at most one flavor
     pick per job;
   - mode handling never resurrects withdrawn variants;
   - fat-tree structural identities hold for every even k. *)

module Poly_req = Hire.Poly_req
module Comp_req = Hire.Comp_req
module Comp_store = Hire.Comp_store
module Transformer = Hire.Transformer
module Pending = Hire.Pending
module Sharing = Hire.Sharing
module Fat_tree = Topology.Fat_tree
module Vec = Prelude.Vec
module Rng = Prelude.Rng

let store = Comp_store.default ()

(* ------------------------------------------------------------------ *)
(* Sharing ledger                                                     *)
(* ------------------------------------------------------------------ *)

let prop_sharing_conserves =
  QCheck.Test.make ~name:"sharing ledger conserves under random place/release" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let topo = Fat_tree.create ~k:4 in
      let services = Array.to_list (Comp_store.service_names store) in
      let sh =
        Sharing.create ~topo ~capacity:Topology.Resource.Switch.default_capacity
          ~supported:(fun _ -> services)
      in
      let capacity = Sharing.capacity sh in
      let switches = Sharing.switch_ids sh in
      (* Multiset of live instances we can release later. *)
      let live = ref [] in
      let ok = ref true in
      for _ = 1 to 200 do
        if Rng.bool rng || !live = [] then begin
          (* Try a placement with a random service and demand draw. *)
          let svc = Comp_store.service_exn store (Rng.choose rng (Array.of_list services)) in
          let sw = Rng.choose rng switches in
          let per_instance = Comp_store.draw_instance_demand svc rng ~group_size:16 in
          if
            Sharing.can_place sh ~switch:sw ~service:svc.Comp_store.name
              ~per_switch:svc.Comp_store.per_switch ~per_instance
          then begin
            Sharing.place sh ~switch:sw ~service:svc.Comp_store.name
              ~per_switch:svc.Comp_store.per_switch ~per_instance;
            live := (sw, svc.Comp_store.name, per_instance) :: !live
          end
        end
        else begin
          match !live with
          | [] -> ()
          | (sw, service, per_instance) :: rest ->
              Sharing.release sh ~switch:sw ~service ~per_instance;
              live := rest
        end;
        (* Invariant: availability within [0, capacity] everywhere. *)
        Array.iter
          (fun sw ->
            let a = Sharing.available sh sw in
            let zero = Vec.zero (Vec.dim a) in
            if not (Vec.fits ~demand:a ~available:capacity && Vec.fits ~demand:zero ~available:a)
            then ok := false)
          switches
      done;
      (* Releasing everything restores full capacity. *)
      List.iter
        (fun (sw, service, per_instance) -> Sharing.release sh ~switch:sw ~service ~per_instance)
        !live;
      Array.iter
        (fun sw -> if not (Vec.equal (Sharing.available sh sw) capacity) then ok := false)
        switches;
      !ok && Vec.is_zero (Sharing.total_used sh))

(* ------------------------------------------------------------------ *)
(* Flow-network rounds                                                *)
(* ------------------------------------------------------------------ *)

let random_req rng =
  let services = Comp_store.service_names store in
  let n_comps = 1 + Rng.int rng 3 in
  let composites =
    List.init n_comps (fun i ->
        let with_inc = Rng.bernoulli rng 0.6 in
        let service = Rng.choose rng services in
        let template =
          if with_inc then Option.get (Comp_store.template_of_service store service)
          else "server"
        in
        {
          Comp_req.comp_id = Printf.sprintf "c%d" i;
          template;
          base =
            {
              Comp_req.instances = 1 + Rng.int rng 8;
              cpu = float_of_int (1 + Rng.int rng 8);
              mem = float_of_int (1 + Rng.int rng 16);
              duration = 10.0 +. Rng.float rng 100.0;
            };
          inc_alternatives = (if with_inc then [ service ] else []);
        })
  in
  let connections =
    List.concat
      (List.mapi
         (fun i c ->
           if i = 0 then []
           else [ ((List.nth composites (i - 1)).Comp_req.comp_id, c.Comp_req.comp_id) ])
         composites)
  in
  { Comp_req.priority = (if Rng.bool rng then Workload.Job.Batch else Workload.Job.Service);
    composites; connections }

let run_random_round seed =
  let rng = Rng.create seed in
  let cluster =
    Sim.Cluster.create ~inc_capable_fraction:0.8 ~k:4
      ~setup:(if Rng.bool rng then Sim.Cluster.Homogeneous else Sim.Cluster.Heterogeneous)
      ~services:(Array.to_list (Comp_store.service_names store))
      (Rng.split rng)
  in
  let ids = Transformer.Id_gen.create () in
  let n_jobs = 1 + Rng.int rng 6 in
  let jobs =
    List.init n_jobs (fun i ->
        Pending.of_poly
          (Transformer.transform store ids (Rng.split rng) ~job_id:i ~arrival:0.0
             (random_req rng)))
  in
  let census = Hire.Locality.Task_census.create (Sim.Cluster.topo cluster) in
  let net =
    Hire.Flow_network.build (Sim.Cluster.view cluster) census ~jobs
      ~now:(Rng.float rng 4.0) ~params:Hire.Cost_model.default_params
  in
  (cluster, jobs, Hire.Flow_network.solve_and_extract net)

let prop_round_placements_feasible =
  QCheck.Test.make ~name:"extracted placements are feasible and unique per machine"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let cluster, jobs, outcome = run_random_round seed in
      let machines_used = Hashtbl.create 16 in
      let find_tg tg_id =
        List.find_map (fun job -> Pending.find_tg job tg_id) jobs
      in
      List.for_all
        (fun (tg_id, machine) ->
          (* One new task per machine per round. *)
          let fresh = not (Hashtbl.mem machines_used machine) in
          Hashtbl.replace machines_used machine ();
          match find_tg tg_id with
          | None -> false
          | Some ts -> (
              let tg = ts.Pending.tg in
              match tg.Poly_req.kind with
              | Poly_req.Server_tg ->
                  fresh
                  && Vec.fits ~demand:tg.Poly_req.demand
                       ~available:(Sim.Cluster.server_available cluster machine)
              | Poly_req.Network_tg n ->
                  fresh
                  && Sharing.can_place (Sim.Cluster.sharing cluster) ~switch:machine
                       ~service:n.Poly_req.service ~per_switch:n.Poly_req.per_switch
                       ~per_instance:tg.Poly_req.demand))
        outcome.Hire.Flow_network.placements)

let prop_round_one_flavor_pick_per_job =
  QCheck.Test.make ~name:"at most one flavor pick per job per round" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let _, _, outcome = run_random_round seed in
      let jobs_picked = List.map fst outcome.Hire.Flow_network.flavor_picks in
      List.length jobs_picked = List.length (List.sort_uniq compare jobs_picked))

let prop_round_flow_optimal =
  QCheck.Test.make ~name:"round flows pass the optimality verifier" ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let cluster =
        Sim.Cluster.create ~inc_capable_fraction:1.0 ~k:4 ~setup:Sim.Cluster.Homogeneous
          ~services:(Array.to_list (Comp_store.service_names store))
          (Rng.split rng)
      in
      let ids = Transformer.Id_gen.create () in
      let jobs =
        List.init 3 (fun i ->
            Pending.of_poly
              (Transformer.transform store ids (Rng.split rng) ~job_id:i ~arrival:0.0
                 (random_req rng)))
      in
      let census = Hire.Locality.Task_census.create (Sim.Cluster.topo cluster) in
      let net =
        Hire.Flow_network.build (Sim.Cluster.view cluster) census ~jobs ~now:1.0
          ~params:Hire.Cost_model.default_params
      in
      let _ = Hire.Flow_network.solve_and_extract net in
      match Flow.Verify.check (Hire.Flow_network.graph net) with
      | Ok () -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Scheduler end-to-end                                               *)
(* ------------------------------------------------------------------ *)

let prop_hire_rounds_never_overcommit =
  QCheck.Test.make ~name:"driving HIRE rounds never over-commits the cluster" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let cluster =
        Sim.Cluster.create ~inc_capable_fraction:0.8 ~k:4 ~setup:Sim.Cluster.Homogeneous
          ~services:(Array.to_list (Comp_store.service_names store))
          (Rng.split rng)
      in
      let sched = Hire.Hire_scheduler.create (Sim.Cluster.view cluster) in
      let ids = Transformer.Id_gen.create () in
      for i = 0 to 3 do
        Hire.Hire_scheduler.submit sched ~time:0.0
          (Transformer.transform store ids (Rng.split rng) ~job_id:i ~arrival:0.0
             (random_req rng))
      done;
      (* Applying every placement must never raise (feasibility was the
         scheduler's promise). *)
      try
        List.iter
          (fun time ->
            let o = Hire.Hire_scheduler.run_round sched ~time in
            List.iter
              (fun ((tg : Poly_req.task_group), m) ->
                match tg.kind with
                | Poly_req.Server_tg ->
                    Sim.Cluster.place_server_task cluster ~server:m ~demand:tg.demand
                | Poly_req.Network_tg _ ->
                    ignore
                      (Sim.Cluster.place_network_task cluster ~switch:m ~tg ~shared:true))
              o.placements)
          [ 0.3; 0.8; 1.3; 1.8; 2.3; 2.8; 3.3 ];
        true
      with Invalid_argument _ -> false)

(* ------------------------------------------------------------------ *)
(* Modes                                                              *)
(* ------------------------------------------------------------------ *)

let prop_modes_decisions_monotone =
  (* Once a variant is withdrawn it never becomes active again (except
     the documented Inc→Server revert). *)
  QCheck.Test.make ~name:"mode decisions are monotone" ~count:80
    QCheck.(pair (int_range 0 1_000_000) bool)
    (fun (seed, concurrent) ->
      let rng = Rng.create seed in
      let modes =
        Schedulers.Modes.create
          (if concurrent then Schedulers.Modes.Concurrent else Schedulers.Modes.Timeout)
      in
      let ids = Transformer.Id_gen.create () in
      Schedulers.Modes.submit modes ~time:0.0
        (Transformer.transform store ids (Rng.split rng) ~job_id:0 ~arrival:0.0
           (random_req rng));
      let ok = ref true in
      let rank = function
        | Schedulers.Modes.Undecided -> 0
        | Schedulers.Modes.Inc -> 1
        | Schedulers.Modes.Server -> 2
      in
      List.iter
        (fun time ->
          ignore (Schedulers.Modes.tick modes ~time);
          List.iter
            (fun (job : Schedulers.Modes.mjob) ->
              let before = rank job.decision in
              (match Schedulers.Modes.active_tgs modes job with
              | rt :: _ when rt.Schedulers.Modes.remaining > 0 && Rng.bool rng ->
                  ignore
                    (Schedulers.Modes.note_placement modes ~time job rt
                       ~machine:(Rng.int rng 30))
              | _ -> ());
              if rank job.decision < before then ok := false)
            (Schedulers.Modes.jobs modes);
          Schedulers.Modes.cleanup modes)
        [ 0.1; 1.0; 5.0; 20.0; 70.0 ];
      !ok)

(* ------------------------------------------------------------------ *)
(* Baselines' allocation-free scans                                   *)
(* ------------------------------------------------------------------ *)

(* K8++'s score as it was computed through arrays; the loop form must
   give the same bits. *)
let k8_score_by_arrays ~capacity ~available ~demand =
  let after = Vec.sub available demand in
  let free_frac = Vec.div after capacity in
  let util_after = Array.map (fun f -> 1.0 -. f) free_frac in
  (Vec.avg free_frac +. (1.0 -. Vec.stddev util_after)) /. 2.0

let prop_k8_score_bitwise =
  QCheck.Test.make ~name:"k8 score = array formula (bitwise)" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dim = Rng.int_in rng 1 4 in
      (* Capacities that are zero, below [Vec.eps] either side of zero,
         or ordinary; availability both above and below the demand. *)
      let coord () =
        match Rng.int rng 5 with
        | 0 -> 0.0
        | 1 -> Vec.eps /. 2.0
        | 2 -> -.Vec.eps /. 3.0
        | _ -> Rng.float_in rng 0.5 100.0
      in
      let capacity = Array.init dim (fun _ -> coord ()) in
      let demand = Array.init dim (fun _ -> Rng.float rng 50.0) in
      let available =
        Array.init dim (fun i ->
            if Rng.bool rng then demand.(i) -. Rng.float rng 10.0
            else Rng.float rng (Float.max 1.0 capacity.(i)))
      in
      Int64.equal
        (Int64.bits_of_float (Schedulers.K8_pp.score ~capacity ~available ~demand))
        (Int64.bits_of_float (k8_score_by_arrays ~capacity ~available ~demand)))

(* Yarn++'s preferred racks as they were computed on every pick: the
   sorted, unique ToRs of every placement the job has made. *)
let tors_of_all_placements topo (job : Schedulers.Modes.mjob) =
  List.concat_map
    (fun (rt : Schedulers.Modes.tg_rt) -> rt.placed_on)
    (job.common @ job.server_only @ job.inc_only)
  |> List.filter_map (fun m ->
         match Fat_tree.kind topo m with
         | Fat_tree.Server -> Some (Fat_tree.tor_of_server topo m)
         | Fat_tree.Tor -> Some m
         | Fat_tree.Agg | Fat_tree.Core -> None)
  |> List.sort_uniq Int.compare

let prop_preferred_tors_incremental =
  QCheck.Test.make ~name:"yarn preferred racks = sort_uniq of all placements" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let topo = Fat_tree.create ~k:4 in
      let modes = Schedulers.Modes.create Schedulers.Modes.Concurrent in
      let ids = Transformer.Id_gen.create () in
      Schedulers.Modes.submit modes ~time:0.0
        (Transformer.transform store ids (Rng.split rng) ~job_id:0 ~arrival:0.0
           (random_req rng));
      let job = List.hd (Schedulers.Modes.jobs modes) in
      let rts = Array.of_list (job.common @ job.server_only @ job.inc_only) in
      let ok = ref true in
      (* Servers, ToRs, aggregation and core switches, with reads after
         no, one or several placements. *)
      for _ = 1 to 60 do
        for _ = 1 to Rng.int rng 4 do
          ignore
            (Schedulers.Modes.note_placement modes ~time:0.0 job (Rng.choose rng rts)
               ~machine:(Rng.int rng (Fat_tree.node_count topo)))
        done;
        if Schedulers.Policy_util.preferred_tors topo job <> tors_of_all_placements topo job
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Fat tree across k                                                  *)
(* ------------------------------------------------------------------ *)

let prop_fat_tree_identities =
  QCheck.Test.make ~name:"fat-tree structural identities for every even k" ~count:20
    QCheck.(int_range 1 8)
    (fun half_k ->
      let k = 2 * half_k in
      let t = Fat_tree.create ~k in
      let servers = Array.length (Fat_tree.servers t) in
      let switches = Array.length (Fat_tree.switches t) in
      servers = k * k * k / 4
      && switches = 5 * k * k / 4
      && Array.for_all
           (fun sw ->
             Fat_tree.kind t sw <> Fat_tree.Core
             || Array.length (Fat_tree.servers_under t sw) = servers)
           (Fat_tree.switches t)
      && Array.for_all
           (fun tor -> Array.length (Fat_tree.servers_under t tor) = k / 2)
           (Fat_tree.tor_switches t))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ("sharing", qt [ prop_sharing_conserves ]);
      ( "flow_network",
        qt
          [
            prop_round_placements_feasible;
            prop_round_one_flavor_pick_per_job;
            prop_round_flow_optimal;
          ] );
      ("scheduler", qt [ prop_hire_rounds_never_overcommit ]);
      ("modes", qt [ prop_modes_decisions_monotone ]);
      ("fat_tree", qt [ prop_fat_tree_identities ]);
      ("baselines", qt [ prop_k8_score_bitwise; prop_preferred_tors_incremental ]);
    ]
