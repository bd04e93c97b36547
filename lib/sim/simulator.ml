module Poly_req = Hire.Poly_req
module Vec = Prelude.Vec

type config = { gang : bool; deterministic_wall : bool }

let default_config = { gang = false; deterministic_wall = false }

(* Seconds past the last arrival during which scheduling continues. *)
let drain = 300.0

(* Lower bound between rounds, seconds. *)
let min_round_interval = 0.001

(* Retry delay when a round placed nothing, seconds. *)
let no_progress_backoff = 0.25

type event =
  | Arrival of Poly_req.t
  | Round
  | Complete of int  (* running-task token *)
  | Node_fail of int
  | Node_recover of int
  | Retry of Poly_req.t

(* One running task.  Tokens decouple completion events from the task
   registry: a task killed by a node failure simply disappears from the
   registry and its already-queued [Complete] becomes a no-op. *)
type running = {
  r_tg : Poly_req.task_group;
  r_machine : int;
  r_shared : bool;
  r_charged : Prelude.Vec.t option;
}

type gang_entry = {
  target : int;  (* instances the group needs before any task starts *)
  mutable g_placed : int;
  mutable held : int list;  (* tokens holding resources until assembly *)
}

type result = { report : Metrics.report; end_time : float; events_processed : int }

(* The live simulation: the event loop's whole state as an explicit
   record so it can be advanced one event at a time ([step]), journaled
   (docs/JOURNAL.md) and checkpointed ([snapshot]/[restore]). *)
type t = {
  config : config;
  policy : Faults.Policy.t;
  cluster : Cluster.t;
  sched : Scheduler_intf.t;
  queue : event Event_queue.t;
  metrics : Metrics.t;
  mutable hard_end : float;
      (* scheduling horizon: last arrival + drain.  Mutable because
         externally injected submissions ([inject], docs/SERVER.md)
         extend it — an open-ended admission server has no static last
         arrival. *)
  mutable round_armed : bool;
  mutable events : int;
  mutable now : float;
  mutable rounds : int;
  (* ---- running-task registry ---- *)
  mutable next_token : int;
  running : (int, running) Hashtbl.t;
  on_machine : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  (* ---- requeue state ---- *)
  attempts : (int, int) Hashtbl.t;
      (* per task group: how many times a failure already sent it back *)
  cancelled_tgs : (int, unit) Hashtbl.t;
      (* groups whose retry budget is exhausted: a still-queued [Retry]
         for such a group must not resubmit it *)
  mutable next_requeue_job : int;
      (* requeued clones carry a synthetic (negative) poly job id so
         that scheduler-internal keying never collides with a live
         original; the embedded task groups keep their real ids for
         metrics and ledgers *)
  job_priority : (int, Workload.Job.priority) Hashtbl.t;
  gang_state : (int, gang_entry) Hashtbl.t;
      (* gang semantics (§5.1: no partial scheduling): tasks of a group
         hold their resources from placement, but only start running —
         and hence schedule completions — once the whole group is
         placed *)
}

let init ?(config = default_config) ?faults ?fault_policy cluster
    (sched : Scheduler_intf.t) arrivals =
  let policy = match fault_policy with Some p -> p | None -> Faults.Policy.default in
  let queue = Event_queue.create () in
  let metrics = Metrics.create (Cluster.topo cluster) in
  let last_arrival = List.fold_left (fun acc (t, _) -> Float.max acc t) 0.0 arrivals in
  let hard_end = last_arrival +. drain in
  List.iter (fun (t, poly) -> Event_queue.push queue ~time:t (Arrival poly)) arrivals;
  (match faults with
  | None -> ()
  | Some plan ->
      (* Plan events past [hard_end] cannot affect any placement; letting
         them through would only stretch [end_time] and the load
         integrals, skewing faulty vs fault-free comparisons.  A recover
         whose fail did make it in is clamped to [hard_end] so every
         seeded outage stays paired. *)
      let down_at_end : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (e : Faults.Plan.event) ->
          match e.kind with
          | Faults.Plan.Fail ->
              if e.time <= hard_end then begin
                Hashtbl.replace down_at_end e.node ();
                Event_queue.push queue ~time:e.time (Node_fail e.node)
              end
          | Faults.Plan.Recover ->
              if Hashtbl.mem down_at_end e.node then begin
                Hashtbl.remove down_at_end e.node;
                Event_queue.push queue ~time:(Float.min e.time hard_end)
                  (Node_recover e.node)
              end)
        (Faults.Plan.events plan));
  {
    config;
    policy;
    cluster;
    sched;
    queue;
    metrics;
    hard_end;
    round_armed = false;
    events = 0;
    now = 0.0;
    rounds = 0;
    next_token = 0;
    running = Hashtbl.create 1024;
    on_machine = Hashtbl.create 256;
    attempts = Hashtbl.create 64;
    cancelled_tgs = Hashtbl.create 16;
    next_requeue_job = -1;
    job_priority = Hashtbl.create 256;
    gang_state = Hashtbl.create 64;
  }

let arm_round t ~time delay =
  if (not t.round_armed) && time +. delay <= t.hard_end then begin
    t.round_armed <- true;
    Event_queue.push t.queue
      ~time:(time +. Float.max delay min_round_interval)
      Round
  end

let register t token r =
  Hashtbl.replace t.running token r;
  let tbl =
    match Hashtbl.find_opt t.on_machine r.r_machine with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace t.on_machine r.r_machine tbl;
        tbl
  in
  Hashtbl.replace tbl token ()

let unregister t token r =
  Hashtbl.remove t.running token;
  match Hashtbl.find_opt t.on_machine r.r_machine with
  | Some tbl -> Hashtbl.remove tbl token
  | None -> ()

let release_resources t (r : running) =
  match r.r_tg.Poly_req.kind with
  | Poly_req.Server_tg ->
      Cluster.release_server_task t.cluster ~server:r.r_machine
        ~demand:r.r_tg.Poly_req.demand
  | Poly_req.Network_tg _ ->
      Cluster.release_network_task t.cluster ~switch:r.r_machine ~tg:r.r_tg
        ~shared:r.r_shared

let schedule_completion t ~time token (r : running) =
  Event_queue.push t.queue ~time:(time +. r.r_tg.Poly_req.duration) (Complete token)

let apply_placement t ~time (p : Scheduler_intf.placement) =
  (* The scheduler has already charged the ledgers. *)
  if Obs.enabled () then
    Obs.Trace.emit "task_place"
      [
        ("tg", Obs.Trace.Int p.tg.Poly_req.tg_id);
        ("job", Obs.Trace.Int p.tg.Poly_req.job_id);
        ("machine", Obs.Trace.Int p.machine);
      ];
  Metrics.on_place t.metrics ~time ~tg:p.tg ~machine:p.machine ~charged:p.charged;
  let token = t.next_token in
  t.next_token <- t.next_token + 1;
  let r =
    { r_tg = p.tg; r_machine = p.machine; r_shared = p.shared; r_charged = p.charged }
  in
  register t token r;
  if not t.config.gang then schedule_completion t ~time token r
  else begin
    let tg_id = p.tg.Poly_req.tg_id in
    let ge =
      match Hashtbl.find_opt t.gang_state tg_id with
      | Some ge -> ge
      | None ->
          (* The target is fixed at first sight of the group: a requeue
             clone for the lost instances re-arms it with just those. *)
          let ge = { target = p.tg.Poly_req.count; g_placed = 0; held = [] } in
          Hashtbl.replace t.gang_state tg_id ge;
          ge
    in
    ge.g_placed <- ge.g_placed + 1;
    ge.held <- token :: ge.held;
    if ge.g_placed >= ge.target then begin
      Hashtbl.remove t.gang_state tg_id;
      (* No member runs before the last one lands, so every completion
         is anchored at the assembly time — not each task's own
         placement time. *)
      List.iter
        (fun tok ->
          match Hashtbl.find_opt t.running tok with
          | Some r -> schedule_completion t ~time tok r
          | None -> () (* killed while the gang was assembling *))
        ge.held
    end
  end

(* ---- fault handling ---- *)

let kill_tasks_on t ~time machine =
  (* Tokens sorted for a deterministic kill order regardless of hash
     internals. *)
  let tokens =
    match Hashtbl.find_opt t.on_machine machine with
    | None -> []
    | Some tbl -> List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
  in
  let killed_per_tg : (int, Poly_req.task_group * int ref) Hashtbl.t = Hashtbl.create 8 in
  let kill_order = ref [] in
  List.iter
    (fun token ->
      match Hashtbl.find_opt t.running token with
      | None -> ()
      | Some r ->
          unregister t token r;
          release_resources t r;
          (if t.config.gang then
             match Hashtbl.find_opt t.gang_state r.r_tg.Poly_req.tg_id with
             | Some ge ->
                 ge.g_placed <- ge.g_placed - 1;
                 ge.held <- List.filter (fun tok -> tok <> token) ge.held
             | None -> ());
          if Obs.enabled () then begin
            Obs.Trace.emit "task_kill"
              [
                ("tg", Obs.Trace.Int r.r_tg.Poly_req.tg_id);
                ("machine", Obs.Trace.Int machine);
              ];
            Obs.Registry.incr (Obs.Registry.counter "sim.task_kills")
          end;
          Metrics.on_task_kill t.metrics ~time ~tg:r.r_tg ~released:r.r_charged;
          t.sched.on_task_complete ~time ~tg:r.r_tg ~machine;
          (match Hashtbl.find_opt killed_per_tg r.r_tg.Poly_req.tg_id with
          | Some (_, n) -> incr n
          | None ->
              kill_order := r.r_tg.Poly_req.tg_id :: !kill_order;
              Hashtbl.replace killed_per_tg r.r_tg.Poly_req.tg_id (r.r_tg, ref 1)))
    tokens;
  List.rev_map (fun tg_id -> Hashtbl.find killed_per_tg tg_id) !kill_order

let requeue_or_cancel t ~emit ~time ((tg : Poly_req.task_group), n) =
  let n = !n in
  let attempt =
    1 + (match Hashtbl.find_opt t.attempts tg.Poly_req.tg_id with Some a -> a | None -> 0)
  in
  Hashtbl.replace t.attempts tg.Poly_req.tg_id attempt;
  let retry_time = time +. Faults.Policy.delay t.policy ~attempt in
  if attempt > t.policy.Faults.Policy.max_retries || retry_time > t.hard_end then begin
    emit (Wal.Fault_cancel { time; tg_id = tg.Poly_req.tg_id; lost = n });
    if Obs.enabled () then begin
      Obs.Registry.incr ~by:n (Obs.Registry.counter "sim.fault_cancels");
      Obs.Trace.emit "tg_fault_cancel"
        [ ("tg", Obs.Trace.Int tg.Poly_req.tg_id); ("lost", Obs.Trace.Int n) ]
    end;
    Metrics.on_fault_cancel t.metrics ~time ~tg ~n;
    (* A cancelled group can never finish: stop the scheduler from
       placing its remaining instances, and tear down any siblings
       still holding resources while the gang was assembling —
       otherwise their capacity leaks for the rest of the run. *)
    Hashtbl.replace t.cancelled_tgs tg.Poly_req.tg_id ();
    t.sched.drop_task_group ~time ~tg_id:tg.Poly_req.tg_id;
    match Hashtbl.find_opt t.gang_state tg.Poly_req.tg_id with
    | None -> ()
    | Some ge ->
        Hashtbl.remove t.gang_state tg.Poly_req.tg_id;
        List.iter
          (fun tok ->
            match Hashtbl.find_opt t.running tok with
            | None -> ()
            | Some r ->
                unregister t tok r;
                release_resources t r;
                if Obs.enabled () then begin
                  Obs.Trace.emit "task_kill"
                    [
                      ("tg", Obs.Trace.Int r.r_tg.Poly_req.tg_id);
                      ("machine", Obs.Trace.Int r.r_machine);
                    ];
                  Obs.Registry.incr (Obs.Registry.counter "sim.task_kills")
                end;
                Metrics.on_task_kill t.metrics ~time ~tg:r.r_tg ~released:r.r_charged;
                t.sched.on_task_complete ~time ~tg:r.r_tg ~machine:r.r_machine)
          (List.rev ge.held)
  end
  else begin
    emit
      (Wal.Requeue { time; tg_id = tg.Poly_req.tg_id; lost = n; attempt; retry_time });
    if Obs.enabled () then begin
      Obs.Registry.incr ~by:n (Obs.Registry.counter "sim.requeues");
      Obs.Trace.emit "tg_requeue"
        [
          ("tg", Obs.Trace.Int tg.Poly_req.tg_id);
          ("lost", Obs.Trace.Int n);
          ("attempt", Obs.Trace.Int attempt);
        ]
    end;
    Metrics.on_requeue t.metrics ~time ~tg ~n;
    (* Re-submit only the lost instances, flavor already materialized
       (the original decision stands; re-placement must not reopen
       it). *)
    let clone = { tg with Poly_req.count = n; flavor = Hire.Flavor.all_x 0 } in
    let priority =
      match Hashtbl.find_opt t.job_priority tg.Poly_req.job_id with
      | Some p -> p
      | None -> Workload.Job.Batch
    in
    let job_id = t.next_requeue_job in
    t.next_requeue_job <- t.next_requeue_job - 1;
    let poly =
      {
        Poly_req.job_id;
        priority;
        arrival = retry_time;
        flavor_len = 0;
        task_groups = [ clone ];
      }
    in
    Event_queue.push t.queue ~time:retry_time (Retry poly)
  end

let no_emit : Wal.record -> unit = fun _ -> ()

(* Process one event.  [emit] receives the WAL record(s) the event gives
   rise to, in order, before their effects become externally visible
   (for [Round]: after the scheduler decided — and charged the ledgers —
   but before the placements are applied; see docs/JOURNAL.md for the
   exact protocol).  Returns [false] once the queue is empty. *)
let step ?(emit = no_emit) t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, ev) ->
      t.now <- Float.max t.now time;
      t.events <- t.events + 1;
      if Obs.enabled () then Obs.Trace.set_sim_time time;
      (match ev with
      | Arrival poly ->
          emit (Wal.Submit { time; job_id = poly.Poly_req.job_id });
          if Obs.enabled () then begin
            Obs.Trace.emit "job_submit"
              [
                ("job", Obs.Trace.Int poly.Poly_req.job_id);
                ("task_groups", Obs.Trace.Int (List.length poly.Poly_req.task_groups));
              ];
            Obs.Registry.incr (Obs.Registry.counter "sim.arrivals")
          end;
          Hashtbl.replace t.job_priority poly.Poly_req.job_id poly.Poly_req.priority;
          Metrics.on_submit t.metrics ~time poly;
          t.sched.submit ~time poly;
          arm_round t ~time 0.0
      | Retry poly ->
          (* Metrics saw the requeue at kill time; this is the delayed
             re-submission of the lost instances.  Groups cancelled in
             the meantime (a later failure exhausted the budget) are
             dropped rather than resubmitted. *)
          let live =
            List.filter
              (fun (tg : Poly_req.task_group) ->
                not (Hashtbl.mem t.cancelled_tgs tg.Poly_req.tg_id))
              poly.Poly_req.task_groups
          in
          if live <> [] then begin
            emit
              (Wal.Resubmit
                 {
                   time;
                   job_id = poly.Poly_req.job_id;
                   tg_ids = List.map (fun (tg : Poly_req.task_group) -> tg.tg_id) live;
                 });
            if Obs.enabled () then
              Obs.Trace.emit "tg_resubmit" [ ("job", Obs.Trace.Int poly.Poly_req.job_id) ];
            t.sched.submit ~time { poly with Poly_req.task_groups = live };
            arm_round t ~time 0.0
          end
      | Round ->
          t.round_armed <- false;
          let res = t.sched.round ~time in
          t.rounds <- t.rounds + 1;
          emit
            (Wal.Round
               {
                 time;
                 round = t.rounds;
                 placements =
                   List.map
                     (fun (p : Scheduler_intf.placement) ->
                       (p.tg.Poly_req.tg_id, p.machine))
                     res.placements;
                 cancelled =
                   List.map (fun (tg : Poly_req.task_group) -> tg.tg_id) res.cancelled;
                 think = res.think;
               });
          if Obs.enabled () then begin
            Obs.Registry.incr (Obs.Registry.counter "sim.rounds");
            Obs.Registry.incr
              ~by:(List.length res.placements)
              (Obs.Registry.counter "sim.placements");
            Obs.Registry.incr
              ~by:(List.length res.cancelled)
              (Obs.Registry.counter "sim.cancels");
            List.iter
              (fun (tg : Poly_req.task_group) ->
                Obs.Trace.emit "tg_cancel"
                  [
                    ("tg", Obs.Trace.Int tg.Poly_req.tg_id);
                    ("job", Obs.Trace.Int tg.Poly_req.job_id);
                  ])
              res.cancelled
          end;
          Metrics.on_round ?resilience:res.resilience t.metrics ~think_s:res.think;
          (match res.solver_wall with
          | Some w ->
              (* Journaled runs substitute the simulated think time for
                 the measured wall time: replayed rounds do not re-run
                 the solver under identical machine conditions, and the
                 recovery proof demands byte-identical metrics. *)
              let w = if t.config.deterministic_wall then res.think else w in
              Metrics.on_solver_sample t.metrics ~wall_s:w
          | None -> ());
          List.iter (apply_placement t ~time) res.placements;
          List.iter (fun tg -> Metrics.on_cancel t.metrics ~time ~tg) res.cancelled;
          (if t.sched.pending () then begin
             let delay =
               if res.placements <> [] || res.cancelled <> [] then res.think
               else Float.max res.think no_progress_backoff
             in
             arm_round t ~time delay
           end);
          emit (Wal.Commit { round = t.rounds })
      | Complete token -> (
          match Hashtbl.find_opt t.running token with
          | None -> () (* killed by a node failure; already released *)
          | Some r ->
              let tg = r.r_tg and machine = r.r_machine in
              emit (Wal.Complete { time; token; tg_id = tg.Poly_req.tg_id; machine });
              unregister t token r;
              release_resources t r;
              if Obs.enabled () then begin
                Obs.Trace.emit "task_complete"
                  [
                    ("tg", Obs.Trace.Int tg.Poly_req.tg_id);
                    ("machine", Obs.Trace.Int machine);
                  ];
                Obs.Registry.incr (Obs.Registry.counter "sim.completions")
              end;
              Metrics.on_task_complete t.metrics ~time ~tg ~released:r.r_charged;
              t.sched.on_task_complete ~time ~tg ~machine;
              if t.sched.pending () then arm_round t ~time min_round_interval)
      | Node_fail node ->
          if Cluster.is_alive t.cluster node then begin
            let killed = kill_tasks_on t ~time node in
            Cluster.fail_node t.cluster ~time node;
            emit
              (Wal.Node_fail
                 {
                   time;
                   node;
                   killed =
                     List.map
                       (fun ((tg : Poly_req.task_group), n) -> (tg.tg_id, !n))
                       killed;
                 });
            Metrics.on_node_fail t.metrics ~time;
            t.sched.on_node_event ~time ~node ~up:false;
            if Obs.enabled () then begin
              Obs.Registry.incr (Obs.Registry.counter "sim.node_fails");
              Obs.Trace.emit "node_fail"
                [
                  ("node", Obs.Trace.Int node);
                  ("killed", Obs.Trace.Int (List.length killed));
                ]
            end;
            List.iter (requeue_or_cancel t ~emit ~time) killed
          end
      | Node_recover node ->
          if not (Cluster.is_alive t.cluster node) then begin
            let failed_at = Cluster.recover_node t.cluster node in
            emit (Wal.Node_recover { time; node; downtime_s = time -. failed_at });
            Metrics.on_node_recover t.metrics ~time ~downtime_s:(time -. failed_at);
            t.sched.on_node_event ~time ~node ~up:true;
            if Obs.enabled () then begin
              Obs.Registry.incr (Obs.Registry.counter "sim.node_recoveries");
              Obs.Trace.emit "node_recover"
                [
                  ("node", Obs.Trace.Int node);
                  ("downtime_s", Obs.Trace.Float (time -. failed_at));
                ]
            end;
            (* Fresh capacity may unblock pending work. *)
            if t.sched.pending () then arm_round t ~time min_round_interval
          end);
      true

let finish t =
  Metrics.finalize t.metrics ~time:(Float.max t.now t.hard_end);
  if Obs.enabled () then begin
    Obs.Trace.set_sim_time t.now;
    Obs.Trace.emit "sim_end"
      [ ("events", Obs.Trace.Int t.events); ("end_time", Obs.Trace.Float t.now) ]
  end;
  { report = Metrics.report t.metrics; end_time = t.now; events_processed = t.events }

let run ?config ?faults ?fault_policy cluster sched arrivals =
  let t = init ?config ?faults ?fault_policy cluster sched arrivals in
  while step t do
    ()
  done;
  finish t

let now t = t.now
let events_processed t = t.events
let rounds t = t.rounds
let metrics t = t.metrics
let quiescent t = Event_queue.is_empty t.queue

(* External submission (admission front-end, docs/SERVER.md): queue an
   arrival the static spec knows nothing about and push the scheduling
   horizon out past it.  Callers must only inject between [step]s and at
   non-decreasing times — the journal replays injections at their
   recorded positions, so the live order is the replayed order. *)
let inject t ~time poly =
  if not (Float.is_finite time) then invalid_arg "Simulator.inject: non-finite time";
  if time < t.now then invalid_arg "Simulator.inject: time precedes simulated now";
  t.hard_end <- Float.max t.hard_end (time +. drain);
  Event_queue.push t.queue ~time
    (Arrival { poly with Poly_req.arrival = time })

(* ------------------------------------------------------------------ *)
(* Snapshot / restore (journal checkpoints, docs/JOURNAL.md)           *)
(* ------------------------------------------------------------------ *)

module Enc = Prelude.Codec.Enc
module Dec = Prelude.Codec.Dec

let enc_event e = function
  | Arrival poly ->
      Enc.byte e 0;
      Hire.Persist.enc_poly e poly
  | Round -> Enc.byte e 1
  | Complete token ->
      Enc.byte e 2;
      Enc.uint e token
  | Node_fail node ->
      Enc.byte e 3;
      Enc.int e node
  | Node_recover node ->
      Enc.byte e 4;
      Enc.int e node
  | Retry poly ->
      Enc.byte e 5;
      Hire.Persist.enc_poly e poly

let dec_event d =
  match Dec.byte d with
  | 0 -> Arrival (Hire.Persist.dec_poly d)
  | 1 -> Round
  | 2 -> Complete (Dec.uint d)
  | 3 -> Node_fail (Dec.int d)
  | 4 -> Node_recover (Dec.int d)
  | 5 -> Retry (Hire.Persist.dec_poly d)
  | b -> raise (Prelude.Codec.Error (Printf.sprintf "Simulator: bad event tag %d" b))

let sorted_int_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let can_snapshot t = t.sched.Scheduler_intf.persist <> None

(* Everything the event loop owns, plus the cluster, metrics and
   scheduler states as nested blobs.  The static inputs (topology,
   arrival stream, fault plan, config) are NOT captured — a snapshot is
   only meaningful overlaid on a simulation rebuilt from the same spec
   ([init] with identical inputs), which reproduces them exactly. *)
let snapshot t =
  match t.sched.Scheduler_intf.persist with
  | None -> None
  | Some persist ->
      let e = Enc.create () in
      Enc.f64 e t.now;
      (* Dynamic since [inject]: a rebuilt world derives the horizon
         from the static arrivals only, so the snapshot must carry it. *)
      Enc.f64 e t.hard_end;
      Enc.uint e t.events;
      Enc.uint e t.rounds;
      Enc.uint e t.next_token;
      Enc.int e t.next_requeue_job;
      Enc.bool e t.round_armed;
      Enc.uint e (Event_queue.next_seq t.queue);
      Enc.list e
        (fun e (time, seq, ev) ->
          Enc.f64 e time;
          Enc.uint e seq;
          enc_event e ev)
        (Event_queue.entries t.queue);
      Enc.list e
        (fun e (token, r) ->
          Enc.uint e token;
          Hire.Persist.enc_task_group e r.r_tg;
          Enc.int e r.r_machine;
          Enc.bool e r.r_shared;
          Enc.option e Enc.float_array r.r_charged)
        (sorted_int_bindings t.running);
      Enc.list e
        (fun e (tg_id, ge) ->
          Enc.int e tg_id;
          Enc.uint e ge.target;
          Enc.uint e ge.g_placed;
          Enc.list e Enc.uint ge.held)
        (sorted_int_bindings t.gang_state);
      Enc.list e
        (fun e (tg_id, a) ->
          Enc.int e tg_id;
          Enc.uint e a)
        (sorted_int_bindings t.attempts);
      Enc.list e Enc.int
        (List.map fst (sorted_int_bindings t.cancelled_tgs));
      Enc.list e
        (fun e (job_id, p) ->
          Enc.int e job_id;
          Hire.Persist.enc_priority e p)
        (sorted_int_bindings t.job_priority);
      Enc.string e (Cluster.snapshot t.cluster);
      Enc.string e (Metrics.snapshot t.metrics);
      Enc.string e (persist.Scheduler_intf.snapshot ());
      Some (Enc.to_string e)

let restore t blob =
  let persist =
    match t.sched.Scheduler_intf.persist with
    | Some p -> p
    | None ->
        raise
          (Prelude.Codec.Error
             "Simulator.restore: scheduler has no persist capability")
  in
  let d = Dec.of_string blob in
  t.now <- Dec.f64 d;
  t.hard_end <- Dec.f64 d;
  t.events <- Dec.uint d;
  t.rounds <- Dec.uint d;
  t.next_token <- Dec.uint d;
  t.next_requeue_job <- Dec.int d;
  t.round_armed <- Dec.bool d;
  let next_seq = Dec.uint d in
  let entries =
    Dec.list d (fun d ->
        let time = Dec.f64 d in
        let seq = Dec.uint d in
        let ev = dec_event d in
        (time, seq, ev))
  in
  (try Event_queue.restore t.queue ~next_seq entries
   with Invalid_argument msg -> raise (Prelude.Codec.Error ("Simulator.restore: " ^ msg)));
  Hashtbl.reset t.running;
  Hashtbl.reset t.on_machine;
  List.iter
    (fun (token, r) -> register t token r)
    (Dec.list d (fun d ->
         let token = Dec.uint d in
         let r_tg = Hire.Persist.dec_task_group d in
         let r_machine = Dec.int d in
         let r_shared = Dec.bool d in
         let r_charged = Dec.option d Dec.float_array in
         (token, { r_tg; r_machine; r_shared; r_charged })));
  Hashtbl.reset t.gang_state;
  List.iter
    (fun (tg_id, ge) -> Hashtbl.replace t.gang_state tg_id ge)
    (Dec.list d (fun d ->
         let tg_id = Dec.int d in
         let target = Dec.uint d in
         let g_placed = Dec.uint d in
         let held = Dec.list d Dec.uint in
         (tg_id, { target; g_placed; held })));
  Hashtbl.reset t.attempts;
  List.iter
    (fun (tg_id, a) -> Hashtbl.replace t.attempts tg_id a)
    (Dec.list d (fun d ->
         let tg_id = Dec.int d in
         let a = Dec.uint d in
         (tg_id, a)));
  Hashtbl.reset t.cancelled_tgs;
  List.iter (fun tg_id -> Hashtbl.replace t.cancelled_tgs tg_id ()) (Dec.list d Dec.int);
  Hashtbl.reset t.job_priority;
  List.iter
    (fun (job_id, p) -> Hashtbl.replace t.job_priority job_id p)
    (Dec.list d (fun d ->
         let job_id = Dec.int d in
         let p = Hire.Persist.dec_priority d in
         (job_id, p)));
  Cluster.restore t.cluster (Dec.string d);
  Metrics.restore t.metrics (Dec.string d);
  persist.Scheduler_intf.restore (Dec.string d);
  if not (Dec.at_end d) then
    raise (Prelude.Codec.Error "Simulator.restore: trailing bytes in snapshot")

(* ------------------------------------------------------------------ *)
(* Post-recovery invariant check (docs/JOURNAL.md)                     *)
(* ------------------------------------------------------------------ *)

(* Recompute expected ledger usage from the running-task registry and
   compare with the cluster's actual ledgers: every charge must be
   accounted for by a live task.  Catches restores that drifted from
   the journaled history before the drift can corrupt a run. *)
let ledger_check t =
  let topo = Cluster.topo t.cluster in
  let used : (int, Vec.t) Hashtbl.t = Hashtbl.create 64 in
  let charge machine v =
    match Hashtbl.find_opt used machine with
    | Some acc -> Vec.add_into acc v
    | None -> Hashtbl.replace used machine (Vec.copy v)
  in
  (* Sharing semantics (Hire.Sharing): a shared service's per-switch
     registration is charged once, by whichever instance arrives first,
     and refunded only when the last one leaves — so it cannot be
     attributed to any single token ([r_charged] embeds the asymmetry).
     Reconstruct it the way the ledger accounts it: per-instance demand
     per token, plus one registration per distinct (switch, service)
     with live shared instances. *)
  let reg_seen : (int * string, unit) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ r ->
      let demand = r.r_tg.Poly_req.demand in
      match r.r_tg.Poly_req.kind with
      | Poly_req.Server_tg -> charge r.r_machine demand
      | Poly_req.Network_tg n ->
          if r.r_shared then begin
            charge r.r_machine demand;
            if not (Hashtbl.mem reg_seen (r.r_machine, n.Poly_req.service)) then begin
              Hashtbl.add reg_seen (r.r_machine, n.Poly_req.service) ();
              charge r.r_machine n.Poly_req.per_switch
            end
          end
          else
            (* Unshared placements fold the registration into every
               instance (Cluster.network_parts). *)
            charge r.r_machine (Vec.add n.Poly_req.per_switch demand))
    t.running;
  let mismatch = ref None in
  let check ~what ~id ~cap ~avail =
    if !mismatch = None then begin
      let expected =
        match Hashtbl.find_opt used id with
        | Some v -> Vec.sub cap v
        | None -> cap
      in
      Array.iteri
        (fun i x ->
          let eps = 1e-6 *. (1.0 +. Float.abs cap.(i)) in
          if !mismatch = None && Float.abs (x -. avail.(i)) > eps then
            mismatch :=
              Some
                (Printf.sprintf
                   "%s %d dimension %d: ledger has %.9g available, running tasks imply %.9g"
                   what id i avail.(i) x))
        expected
    end
  in
  let server_cap = Cluster.server_capacity t.cluster in
  Array.iter
    (fun s ->
      check ~what:"server" ~id:s ~cap:server_cap
        ~avail:(Cluster.server_available t.cluster s))
    (Topology.Fat_tree.servers topo);
  let sharing = Cluster.sharing t.cluster in
  let switch_cap = Hire.Sharing.capacity sharing in
  Array.iter
    (fun sw ->
      check ~what:"switch" ~id:sw ~cap:switch_cap
        ~avail:(Hire.Sharing.available sharing sw))
    (Hire.Sharing.switch_ids sharing);
  match !mismatch with None -> Ok () | Some msg -> Error msg
