module Rng = Prelude.Rng

type spec = {
  scheduler : string;
  mu : float;
  setup : Sim.Cluster.inc_setup;
  k : int;
  horizon : float;
  seed : int;
  target_utilization : float;
  inc_capable_fraction : float option;
  faults : Faults.spec option;
  resilience : Hire.Hire_scheduler.resilience option;
  incremental : bool;
  reopt : bool;
  portfolio : bool;
}

let default =
  {
    scheduler = "hire";
    mu = 0.5;
    setup = Sim.Cluster.Homogeneous;
    k = 8;
    horizon = 600.0;
    seed = 1;
    target_utilization = 0.80;
    inc_capable_fraction = Some 0.15;
    faults = None;
    resilience = None;
    incremental = true;
    reopt = true;
    portfolio = false;
  }

(* Build the whole world of a spec — cluster, workload, scheduler, fault
   plan — and hand back the initialized (not yet executed) simulation.
   The RNG split order (trace, scenario, cluster, fault) is part of a
   spec's identity: journaled runs rebuild the world through this very
   function during recovery (docs/JOURNAL.md), so the streams here must
   stay byte-for-byte reproducible. *)
let prepare ?config spec =
  let rng = Rng.create spec.seed in
  let trace_rng = Rng.split rng in
  let scenario_rng = Rng.split rng in
  let cluster_rng = Rng.split rng in
  (* Always drawn so that the trace/scenario/cluster streams — and hence
     the fault-free baseline behaviour — are identical whether or not
     faults are enabled. *)
  let fault_rng = Rng.split rng in
  let store = Hire.Comp_store.default () in
  let services = Array.to_list (Hire.Comp_store.service_names store) in
  let cluster =
    Sim.Cluster.create ?inc_capable_fraction:spec.inc_capable_fraction ~k:spec.k
      ~setup:spec.setup ~services cluster_rng
  in
  let trace_config =
    Workload.Trace_gen.scaled_rate
      ~n_servers:(Sim.Cluster.n_servers cluster)
      ~target_utilization:spec.target_utilization Workload.Trace_gen.default
  in
  let jobs = Workload.Trace_gen.generate trace_config trace_rng ~horizon:spec.horizon in
  let scenario = Sim.Scenario.build store scenario_rng ~mu:spec.mu jobs in
  let sched =
    Schedulers.Registry.create ?resilience:spec.resilience ~incremental:spec.incremental
      ~reopt:spec.reopt ~portfolio:spec.portfolio spec.scheduler ~seed:spec.seed cluster
  in
  let faults_plan =
    Option.map
      (fun (fs : Faults.spec) ->
        let topo = Sim.Cluster.topo cluster in
        let sharing = Sim.Cluster.sharing cluster in
        Faults.Plan.generate fs.plan fault_rng
          ~inc_capable:(fun s -> Hire.Sharing.n_supported sharing s > 0)
          ~servers:(Topology.Fat_tree.servers topo)
          ~switches:(Topology.Fat_tree.switches topo)
          ~horizon:spec.horizon)
      spec.faults
  in
  let fault_policy = Option.map (fun (fs : Faults.spec) -> fs.policy) spec.faults in
  Sim.Simulator.init ?config ?faults:faults_plan ?fault_policy cluster sched
    scenario.Sim.Scenario.arrivals

let run spec =
  let sim = prepare spec in
  while Sim.Simulator.step sim do
    ()
  done;
  (Sim.Simulator.finish sim).Sim.Simulator.report

let run_seeds spec seeds = List.map (fun seed -> run { spec with seed }) seeds

(* ------------------------------------------------------------------ *)
(* Spec serialization (journal WAL headers, docs/JOURNAL.md)           *)
(* ------------------------------------------------------------------ *)

module Enc = Prelude.Codec.Enc
module Dec = Prelude.Codec.Dec

(* Bump on any wire-format change; old journals then fail closed with a
   version error instead of being misdecoded.  v2 added the [reopt]
   flag. *)
let spec_blob_version = 2

let enc_setup e = function
  | Sim.Cluster.Homogeneous -> Enc.byte e 0
  | Sim.Cluster.Heterogeneous -> Enc.byte e 1

let dec_setup d =
  match Dec.byte d with
  | 0 -> Sim.Cluster.Homogeneous
  | 1 -> Sim.Cluster.Heterogeneous
  | b -> raise (Prelude.Codec.Error (Printf.sprintf "unknown inc_setup tag %d" b))

let enc_faults e (fs : Faults.spec) =
  Enc.f64 e fs.plan.Faults.Plan.server_mtbf;
  Enc.f64 e fs.plan.server_mttr;
  Enc.f64 e fs.plan.switch_mtbf;
  Enc.f64 e fs.plan.switch_mttr;
  Enc.f64 e fs.plan.inc_weight;
  Enc.uint e fs.policy.Faults.Policy.max_retries;
  Enc.f64 e fs.policy.backoff;
  Enc.f64 e fs.policy.multiplier

let dec_faults d : Faults.spec =
  let server_mtbf = Dec.f64 d in
  let server_mttr = Dec.f64 d in
  let switch_mtbf = Dec.f64 d in
  let switch_mttr = Dec.f64 d in
  let inc_weight = Dec.f64 d in
  let max_retries = Dec.uint d in
  let backoff = Dec.f64 d in
  let multiplier = Dec.f64 d in
  {
    plan = { Faults.Plan.server_mtbf; server_mttr; switch_mtbf; switch_mttr; inc_weight };
    policy = { Faults.Policy.max_retries; backoff; multiplier };
  }

let enc_resilience e (r : Hire.Hire_scheduler.resilience) =
  Enc.option e
    (fun e (b : Flow.Budget.t) ->
      Enc.option e Enc.f64 b.Flow.Budget.max_wall_s;
      Enc.option e Enc.uint b.max_steps)
    r.Hire.Hire_scheduler.budget;
  Enc.int e r.guard_every

let dec_resilience d : Hire.Hire_scheduler.resilience =
  let budget =
    Dec.option d (fun d ->
        let max_wall_s = Dec.option d Dec.f64 in
        let max_steps = Dec.option d Dec.uint in
        { Flow.Budget.max_wall_s; max_steps })
  in
  let guard_every = Dec.int d in
  { Hire.Hire_scheduler.budget; guard_every }

let spec_to_blob spec =
  let e = Enc.create () in
  Enc.uint e spec_blob_version;
  Enc.string e spec.scheduler;
  Enc.f64 e spec.mu;
  enc_setup e spec.setup;
  Enc.uint e spec.k;
  Enc.f64 e spec.horizon;
  Enc.int e spec.seed;
  Enc.f64 e spec.target_utilization;
  Enc.option e Enc.f64 spec.inc_capable_fraction;
  Enc.option e enc_faults spec.faults;
  Enc.option e enc_resilience spec.resilience;
  Enc.bool e spec.incremental;
  Enc.bool e spec.reopt;
  Enc.bool e spec.portfolio;
  Enc.to_string e

let spec_of_blob blob =
  let d = Dec.of_string blob in
  let v = Dec.uint d in
  if v <> spec_blob_version then
    raise
      (Prelude.Codec.Error
         (Printf.sprintf "spec blob version %d, this build reads %d" v spec_blob_version));
  let scheduler = Dec.string d in
  let mu = Dec.f64 d in
  let setup = dec_setup d in
  let k = Dec.uint d in
  let horizon = Dec.f64 d in
  let seed = Dec.int d in
  let target_utilization = Dec.f64 d in
  let inc_capable_fraction = Dec.option d Dec.f64 in
  let faults = Dec.option d dec_faults in
  let resilience = Dec.option d dec_resilience in
  let incremental = Dec.bool d in
  let reopt = Dec.bool d in
  let portfolio = Dec.bool d in
  if not (Dec.at_end d) then
    raise (Prelude.Codec.Error "trailing bytes after spec blob");
  {
    scheduler;
    mu;
    setup;
    k;
    horizon;
    seed;
    target_utilization;
    inc_capable_fraction;
    faults;
    resilience;
    incremental;
    reopt;
    portfolio;
  }

let mean_over f reports = Prelude.Stats.mean (List.map f reports)

(* ------------------------------------------------------------------ *)
(* Sweep enumeration and cell identity                                 *)
(* ------------------------------------------------------------------ *)

let sweep ?schedulers ?mus ?setups ?seeds base =
  let axis opt default = match opt with Some l -> l | None -> [ default ] in
  let schedulers = axis schedulers base.scheduler in
  let mus = axis mus base.mu in
  let setups = axis setups base.setup in
  let seeds = axis seeds base.seed in
  List.concat_map
    (fun setup ->
      List.concat_map
        (fun scheduler ->
          List.concat_map
            (fun mu -> List.map (fun seed -> { base with scheduler; mu; setup; seed }) seeds)
            mus)
        schedulers)
    setups

let describe spec =
  Printf.sprintf "%s mu=%.2f %s k=%d seed=%d%s" spec.scheduler spec.mu
    (Sim.Cluster.inc_setup_to_string spec.setup)
    spec.k spec.seed
    (match spec.faults with None -> "" | Some _ -> " +faults")
    ^ (match spec.resilience with None -> "" | Some _ -> " +resilience")
    ^ (if spec.incremental then "" else " -incremental")
    ^ if spec.reopt then "" else " -reopt"

(* Bump when the meaning of a cell changes without its spec changing
   (simulator semantics, trace generator, metrics definitions, ...) so
   that stale cache entries miss instead of resurfacing as fresh data. *)
let cell_schema_version = "1"

let cell_key spec =
  let b = Buffer.create 256 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  (* %h renders the exact float bits, so keys never collide or drift
     through decimal rounding. *)
  addf "hire.experiment.cell.v%s" cell_schema_version;
  addf "|scheduler=%s" spec.scheduler;
  addf "|mu=%h" spec.mu;
  addf "|setup=%s" (Sim.Cluster.inc_setup_to_string spec.setup);
  addf "|k=%d" spec.k;
  addf "|horizon=%h" spec.horizon;
  addf "|seed=%d" spec.seed;
  addf "|util=%h" spec.target_utilization;
  (match spec.inc_capable_fraction with
  | None -> addf "|frac=default"
  | Some f -> addf "|frac=%h" f);
  (match spec.faults with
  | None -> addf "|faults=none"
  | Some { Faults.plan; policy } ->
      addf "|faults=mtbf:%h,%h;mttr:%h,%h;w:%h;retries:%d;backoff:%h;mult:%h"
        plan.Faults.Plan.server_mtbf plan.switch_mtbf plan.server_mttr plan.switch_mttr
        plan.inc_weight policy.Faults.Policy.max_retries policy.backoff policy.multiplier);
  (* Appended only when set, so cells of resilience-free sweeps keep
     their pre-resilience keys and cached results stay valid. *)
  (match spec.resilience with
  | None -> ()
  | Some { Hire.Hire_scheduler.budget; guard_every } ->
      let wall, steps =
        match budget with
        | None -> ("none", "none")
        | Some { Flow.Budget.max_wall_s; max_steps } ->
            ( (match max_wall_s with
              | None -> "none"
              | Some s -> Printf.sprintf "%h" s),
              match max_steps with None -> "none" | Some n -> string_of_int n )
      in
      addf "|resilience=wall:%s;steps:%s;guard:%d" wall steps guard_every);
  (* Incremental network maintenance produces bit-identical results, so
     the default (on) keeps the historical key; only the full-rebuild
     reference path gets its own cells. *)
  if not spec.incremental then addf "|incremental=off";
  (* Same discipline for the re-optimizing solve path: bit-identical by
     construction, so only the cold-reset reference path gets new cells. *)
  if not spec.reopt then addf "|reopt=off";
  Digest.to_hex (Digest.string (Buffer.contents b))
