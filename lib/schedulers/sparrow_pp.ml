module Poly_req = Hire.Poly_req
module Rng = Prelude.Rng

let think_per_alloc = 0.0004
let recheck_interval = 0.2
let recheck_threshold = 0.5

type stub = { s_job : Modes.mjob; s_rt : Modes.tg_rt }

type sample_state = { mutable outstanding : int; mutable last_sample : float }

let create ~mode ~seed cluster =
  let name = "sparrow-" ^ Modes.mode_to_string mode in
  let c_attempts = Obs.Registry.counter ("sched." ^ name ^ ".alloc_attempts") in
  let c_samples = Obs.Registry.counter ("sched." ^ name ^ ".samples") in
  let c_blocked = Obs.Registry.counter ("sched." ^ name ^ ".head_blocked") in
  let g_depth = Obs.Registry.gauge ("sched." ^ name ^ ".queue_depth") in
  let modes = Modes.create mode in
  let rng = Rng.create seed in
  let queues : (int, stub Queue.t) Hashtbl.t = Hashtbl.create 256 in
  let samples : (int, sample_state) Hashtbl.t = Hashtbl.create 256 in
  let queue_of m =
    match Hashtbl.find_opt queues m with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace queues m q;
        q
  in
  let state_of tg_id =
    match Hashtbl.find_opt samples tg_id with
    | Some s -> s
    | None ->
        let s = { outstanding = 0; last_sample = neg_infinity } in
        Hashtbl.replace samples tg_id s;
        s
  in
  let view = Sim.Cluster.view cluster in
  let feasible machine (rt : Modes.tg_rt) =
    if Poly_req.is_network rt.tg then Policy_util.switch_feasible cluster ~switch:machine rt
    else Policy_util.server_fits view ~server:machine ~demand:rt.tg.Poly_req.demand
  in
  (* The feasible machines of one sample, in id order, then shuffled in
     place: one buffer for every sample, as long as the larger machine
     class. *)
  let pool = Array.make (max (Sim.Cluster.n_servers cluster) (Sim.Cluster.n_switches cluster)) 0 in
  (* Batch sampling: enqueue reservations for up to [need] tasks on the
     shortest queues among 2·need sampled feasible machines. *)
  let sample_for ~time job (rt : Modes.tg_rt) st =
    let need = rt.remaining - st.outstanding in
    if need > 0 then begin
      let len =
        Array.fold_left
          (fun len m ->
            if feasible m rt then begin
              pool.(len) <- m;
              len + 1
            end
            else len)
          0
          (Policy_util.machine_pool cluster rt)
      in
      if len > 0 then begin
        let k = Rng.sample_in_place rng ~n:(2 * need) pool ~len in
        let sampled = List.init k (Array.get pool) in
        (* A stable sort of the sample, as a list: [queue_of] creates a
           machine's queue on first sight, and the order in which this
           sort first sees the sampled machines is the insertion order
           of [queues], which the late-binding pass iterates. *)
        let by_queue_len =
          List.sort
            (fun a b -> Int.compare (Queue.length (queue_of a)) (Queue.length (queue_of b)))
            sampled
        in
        List.iteri
          (fun i m ->
            if i < need then begin
              Queue.push { s_job = job; s_rt = rt } (queue_of m);
              if Obs.enabled () then Obs.Registry.incr c_samples;
              st.outstanding <- st.outstanding + 1
            end)
          by_queue_len;
        st.last_sample <- time
      end
    end
  in
  let submit ~time poly = Modes.submit modes ~time poly in
  let round ~time =
    (* Newest first; reversed once below. *)
    let cancelled = ref (List.rev (Modes.tick modes ~time)) in
    let attempts = ref 0 in
    (* Sampling pass: fresh groups, and re-checks for starved groups. *)
    List.iter
      (fun job ->
        List.iter
          (fun (rt : Modes.tg_rt) ->
            let st = state_of rt.tg.Poly_req.tg_id in
            let fresh = st.last_sample = neg_infinity in
            let starved =
              time -. st.last_sample >= recheck_interval
              && float_of_int st.outstanding
                 < recheck_threshold *. float_of_int rt.remaining
            in
            if fresh || starved then sample_for ~time job rt st)
          (Modes.active_tgs modes job))
      (Modes.jobs modes);
    (* Late binding: machines start queued reservations that fit now. *)
    let placements = ref [] in
    Hashtbl.iter
      (fun machine q ->
        let continue_ = ref true in
        while !continue_ && not (Queue.is_empty q) do
          let stub = Queue.peek q in
          let rt = stub.s_rt in
          let st = state_of rt.tg.Poly_req.tg_id in
          if rt.remaining <= 0 then begin
            ignore (Queue.pop q);
            st.outstanding <- max 0 (st.outstanding - 1)
          end
          else if Poly_req.is_network rt.tg && List.mem machine rt.placed_on then begin
            (* A chain slot duplicated on this switch: discard the stub. *)
            ignore (Queue.pop q);
            st.outstanding <- max 0 (st.outstanding - 1)
          end
          else begin
            incr attempts;
            if feasible machine rt then begin
              ignore (Queue.pop q);
              st.outstanding <- max 0 (st.outstanding - 1);
              let placement =
                Sim.Scheduler_intf.place cluster ~tg:rt.tg ~machine ~shared:false
              in
              let dropped = Modes.note_placement modes ~time stub.s_job rt ~machine in
              cancelled := List.rev_append dropped !cancelled;
              placements := placement :: !placements
            end
            else begin
              if Obs.enabled () then Obs.Registry.incr c_blocked;
              continue_ := false (* head-of-line blocks this machine *)
            end
          end
        done)
      queues;
    Modes.cleanup modes;
    if Obs.enabled () then begin
      Obs.Registry.incr ~by:!attempts c_attempts;
      let depth = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) queues 0 in
      Obs.Registry.set g_depth (float_of_int depth)
    end;
    {
      Sim.Scheduler_intf.placements = List.rev !placements;
      cancelled = List.rev !cancelled;
      think = think_per_alloc *. float_of_int (max 1 !attempts);
      solver_wall = None;
      resilience = None;
    }
  in
  {
    Sim.Scheduler_intf.name;
    submit;
    round;
    pending = (fun () -> Modes.pending modes);
    on_task_complete = (fun ~time:_ ~tg:_ ~machine:_ -> ());
    on_node_event =
      (fun ~time:_ ~node ~up ->
        (* A dead machine never drains its reservations: flush them so
           the batch-sampling recheck sees the lost probes (otherwise
           [outstanding] stays inflated and the group starves even after
           the rest of the cluster frees up). *)
        if not up then
          match Hashtbl.find_opt queues node with
          | None -> ()
          | Some q ->
              Queue.iter
                (fun stub ->
                  let st = state_of stub.s_rt.Modes.tg.Poly_req.tg_id in
                  st.outstanding <- max 0 (st.outstanding - 1))
                q;
              Queue.clear q);
    (* Stubs for a dropped group drain lazily: the late-binding pass
       discards reservations whose [remaining] hit zero. *)
    drop_task_group = (fun ~time:_ ~tg_id -> Modes.drop_tg modes ~tg_id);
    (* Cheap per-round decisions: recovery replays from genesis. *)
    persist = None;
  }
