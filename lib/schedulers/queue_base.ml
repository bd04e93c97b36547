type pick = time:float -> Modes.mjob -> Modes.tg_rt -> int option

let make ~name ~think_per_alloc ?(max_allocs_per_round = 200) ?(order_jobs = fun x -> x)
    ~pick cluster modes =
  (* Instruments are resolved once; updates stay behind [Obs.enabled]. *)
  let c_attempts = Obs.Registry.counter ("sched." ^ name ^ ".alloc_attempts") in
  let c_allocs = Obs.Registry.counter ("sched." ^ name ^ ".allocs") in
  let c_retries = Obs.Registry.counter ("sched." ^ name ^ ".pick_retries") in
  let g_depth = Obs.Registry.gauge ("sched." ^ name ^ ".queue_depth") in
  let submit ~time poly = Modes.submit modes ~time poly in
  let round ~time =
    (* Newest first; reversed once below. *)
    let cancelled = ref (List.rev (Modes.tick modes ~time)) in
    let placements = ref [] in
    let attempts = ref 0 in
    let allocs = ref 0 in
    let jobs = order_jobs (Modes.jobs modes) in
    if Obs.enabled () then Obs.Registry.set g_depth (float_of_int (List.length jobs));
    List.iter
      (fun job ->
        List.iter
          (fun (rt : Modes.tg_rt) ->
            let stop = ref false in
            while (not !stop) && rt.remaining > 0 && !allocs < max_allocs_per_round do
              incr attempts;
              match pick ~time job rt with
              | None ->
                  if Obs.enabled () then Obs.Registry.incr c_retries;
                  stop := true
              | Some machine ->
                  let placement =
                    Sim.Scheduler_intf.place cluster ~tg:rt.tg ~machine ~shared:false
                  in
                  let dropped = Modes.note_placement modes ~time job rt ~machine in
                  cancelled := List.rev_append dropped !cancelled;
                  placements := placement :: !placements;
                  incr allocs
            done)
          (Modes.active_tgs modes job))
      jobs;
    Modes.cleanup modes;
    if Obs.enabled () then begin
      Obs.Registry.incr ~by:!attempts c_attempts;
      Obs.Registry.incr ~by:!allocs c_allocs
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
    (* Stateless about machines: liveness is re-read from the cluster on
       every pick. *)
    on_node_event = (fun ~time:_ ~node:_ ~up:_ -> ());
    drop_task_group = (fun ~time:_ ~tg_id -> Modes.drop_tg modes ~tg_id);
    (* Cheap per-round decisions: recovery replays from genesis. *)
    persist = None;
  }
