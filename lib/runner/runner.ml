(** Parallel, resumable experiment-sweep runner.

    Executes a list of cells as a pool of isolated worker processes
    ({!Pool}: [Unix.fork], one child per cell, results marshalled back
    over a pipe) — or, with [~mode:Pool.Domains], as a fixed pool of
    OCaml 5 domains sharing this process — behind an on-disk result
    cache ({!Cache}) keyed by a content hash of each cell's config.  Guarantees, in order of importance:

    - {b determinism} — outcomes are returned in input order and carry
      pure marshalled values, so a [~jobs:4] run is byte-identical to a
      sequential one;
    - {b resumability} — with a cache, finished cells are loaded from
      disk and only missing ones execute, so an interrupted sweep
      restarted over the same directory completes from where it died
      and unchanged cells are free on re-run;
    - {b robustness} — a cell that crashes, raises, or exceeds its
      wall-clock budget is retried up to a bound and then reported as a
      structured {!Pool.reason} without aborting the remaining cells.

    Progress/throughput counters land in the {!Obs} registry when
    instrumentation is on.  Architecture notes: [docs/RUNNER.md]. *)

module Cache = Cache
module Pool = Pool

(** Result of one cell, in input order.  [from_cache] outcomes have
    [attempts = 0] and [wall_s = 0.]. *)
type 'b outcome = {
  key : string;
  result : ('b, Pool.reason) result;
  attempts : int;
  wall_s : float;
  from_cache : bool;
}

type stats = {
  total : int;
  executed : int;  (** cells evaluated by a worker this run *)
  cached : int;  (** cells served from the on-disk cache *)
  failed : int;  (** cells whose retry budget ran out *)
  retries : int;  (** extra attempts across all executed cells *)
  wall_s : float;  (** wall-clock of the whole [run] call *)
}

let pp_stats fmt s =
  Format.fprintf fmt "%d cells: %d executed, %d cached, %d failed, %d retries, %.1fs"
    s.total s.executed s.cached s.failed s.retries s.wall_s

let obs_account stats =
  if Obs.enabled () then begin
    let c name = Obs.Registry.counter ("runner." ^ name) in
    Obs.Registry.incr ~by:stats.executed (c "cells_executed");
    Obs.Registry.incr ~by:stats.cached (c "cells_cached");
    Obs.Registry.incr ~by:stats.failed (c "cells_failed");
    Obs.Registry.incr ~by:stats.retries (c "retries")
  end

let run ?(jobs = 1) ?timeout ?(retries = 1) ?cache ?(resume = true) ?(isolate = true) ?mode
    ?label ?(log = ignore) ~key ~f items =
  let t0 = Prelude.Clock.now () in
  let keyed = List.map (fun item -> (item, key item)) items in
  (* Resolve cache hits first; only the misses go to the pool. *)
  let slots =
    List.map
      (fun (item, k) ->
        match cache with
        | Some c when resume -> (
            match Cache.load c k with
            | Some v ->
                ( (item, k),
                  Some { key = k; result = Ok v; attempts = 0; wall_s = 0.; from_cache = true }
                )
            | None -> ((item, k), None))
        | _ -> ((item, k), None))
      keyed
  in
  let to_run = List.filter_map (fun (ik, hit) -> if hit = None then Some ik else None) slots in
  let n_cached = List.length slots - List.length to_run in
  if n_cached > 0 then
    log (Printf.sprintf "[runner] %d/%d cells cached, %d to run" n_cached (List.length slots)
           (List.length to_run));
  let pool_label =
    match label with Some l -> Some (fun (item, _k) -> l item) | None -> None
  in
  let ran =
    Pool.map ~jobs ?timeout ~retries ~isolate ?mode ?label:pool_label ~log
      ~f:(fun (item, _k) -> f item)
      to_run
  in
  (* Persist fresh successes so a later run (or a restart after a crash
     mid-sweep) finds them. *)
  (match cache with
  | Some c ->
      List.iter2
        (fun (_item, k) (cell : _ Pool.cell) ->
          match cell.result with Ok v -> Cache.store c k v | Error _ -> ())
        to_run ran
  | None -> ());
  (* Reassemble in input order. *)
  let ran = ref ran in
  let outcomes =
    List.map
      (fun ((_item, k), hit) ->
        match hit with
        | Some o -> o
        | None ->
            let (cell : _ Pool.cell), rest =
              match !ran with [] -> assert false | c :: rest -> (c, rest)
            in
            ran := rest;
            {
              key = k;
              result = cell.result;
              attempts = cell.attempts;
              wall_s = cell.wall_s;
              from_cache = false;
            })
      slots
  in
  let stats =
    List.fold_left
      (fun acc o ->
        {
          acc with
          executed = (acc.executed + if o.from_cache then 0 else 1);
          cached = (acc.cached + if o.from_cache then 1 else 0);
          failed = (acc.failed + match o.result with Error _ -> 1 | Ok _ -> 0);
          retries = acc.retries + max 0 (o.attempts - 1);
        })
      {
        total = List.length outcomes;
        executed = 0;
        cached = 0;
        failed = 0;
        retries = 0;
        wall_s = 0.;
      }
      outcomes
  in
  let stats = { stats with wall_s = Prelude.Clock.now () -. t0 } in
  obs_account stats;
  if Obs.enabled () then
    List.iter
      (fun o ->
        if not o.from_cache then
          Obs.Histogram.observe (Obs.Registry.histogram "runner.cell_wall_s") o.wall_s)
      outcomes;
  log (Format.asprintf "[runner] done: %a" pp_stats stats);
  (outcomes, stats)
