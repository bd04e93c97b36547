(* Journaled scheduler service: the serial event loop with a write-ahead
   log underneath (docs/JOURNAL.md).  Every externally visible decision
   is appended to the WAL before it takes effect; [Wal.Commit] records
   are the durability barriers (fsync), and every [checkpoint_every]-th
   round a full snapshot is written so recovery replays only a suffix. *)

let wal_name = "wal.bin"
let wal_path dir = Filename.concat dir wal_name

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type t = {
  dir : string;
  checkpoint_every : int;  (* rounds between checkpoints; <= 0 disables *)
  sim : Simulator.t;
  sink : Journal.Sink.t;
  mutable next_gen : int;
  mutable observer : Wal.record -> unit;
      (* tap on every record the live event loop appends; the admission
         front-end (docs/SERVER.md) tracks per-job progress through it *)
}

let sim t = t.sim
let set_observer t f = t.observer <- f
let wal_seq t = Journal.Sink.next_seq t.sink

(* Checkpoint generations kept on disk: the newest, plus one to fall
   back on if the newest is torn.  The WAL is never truncated, so
   genesis replay stays available behind both. *)
let checkpoints_kept = 2

let write_checkpoint t =
  match Simulator.snapshot t.sim with
  | None -> ()  (* scheduler has no persist capability: genesis replay only *)
  | Some blob -> (
      (* Join outstanding overlapped fsyncs first: a checkpoint's
         [upto_seq] must never cover records that are not yet durable,
         or recovery after a crash would refuse the journal. *)
      Journal.Sink.barrier t.sink;
      (* Checkpoints are recovery accelerators, not a correctness
         dependency: a failed write (ENOSPC, EIO, injected) is skipped —
         recovery falls back to an older generation or genesis replay —
         and the same generation is retried at the next cadence.  A
         failed {e barrier} above still propagates: that is WAL
         durability, not checkpointing. *)
      match
        Journal.Checkpoint.write ~dir:t.dir ~gen:t.next_gen
          ~upto_seq:(Journal.Sink.next_seq t.sink)
          blob
      with
      | () ->
          t.next_gen <- t.next_gen + 1;
          Journal.Checkpoint.prune ~dir:t.dir ~keep:checkpoints_kept
      | exception Journal.Error.Journal_error (Journal.Error.Io _) -> ())

(* The WAL protocol: append every record as it is emitted (buffered,
   not yet durable); every round commit is a durability point,
   group-committed within a bounded window so one fsync covers the
   rounds that land inside it (see {!Journal.Sink}); checkpoint at each
   due round behind a sync barrier, so a checkpoint's [upto_seq] only
   ever covers durable records. *)
let live_emit t r =
  let (_ : int) = Journal.Sink.append t.sink (Wal.encode r) in
  t.observer r;
  match r with
  | Wal.Commit { round } ->
      Journal.Sink.commit t.sink;
      if t.checkpoint_every > 0 && round mod t.checkpoint_every = 0 then
        write_checkpoint t
  | _ -> ()

(* Manual append for input records ([Wal.Admit]/[Wal.Inject]): the
   admission layer writes them through the same sink so they land in
   stream order with the simulator's own records.  Buffered — call
   [ack_barrier] before acknowledging anything to a client. *)
let append t r =
  let (_ : int) = Journal.Sink.append t.sink (Wal.encode r) in
  ()

(* WAL-before-ack (docs/SERVER.md): every record appended so far is on
   disk when this returns, group-commit window notwithstanding. *)
let ack_barrier t =
  Journal.Sink.commit t.sink;
  Journal.Sink.barrier t.sink

(* Group-commit window: one fsync covers the rounds that land within
   20ms of the last sync.  On crash at most that window of committed
   records is lost — and deterministic replay re-derives them, so the
   recovered continuation is unaffected (docs/JOURNAL.md). *)
let default_fsync_interval_s = 0.02

let start ~dir ?(checkpoint_every = 0) ?(fsync_interval_s = default_fsync_interval_s)
    ~header sim =
  mkdir_p dir;
  let sink = Journal.Sink.create ~fsync_interval_s ~path:(wal_path dir) ~header () in
  { dir; checkpoint_every; sim; sink; next_gen = 0; observer = ignore }

type recovered = { service : t; replayed : int; from_checkpoint : int option }

let recover ~dir ?(checkpoint_every = 0)
    ?(fsync_interval_s = default_fsync_interval_s) ?on_input ?observe ~rebuild () =
  let path = wal_path dir in
  let loaded =
    match Journal.Source.load ~path with
    | Ok l -> l
    | Error e -> Journal.Error.raise_ e
  in
  (match loaded.Journal.Source.tail with
  | Journal.Source.Clean -> ()
  | Journal.Source.Torn _ ->
      (* The tear is cut when the sink reopens below. *)
      if Obs.enabled () then Obs.Registry.incr (Obs.Registry.counter "journal.torn_tail"));
  let sim = rebuild loaded.Journal.Source.header in
  let n = Array.length loaded.Journal.Source.records in
  let from_ =
    if not (Simulator.can_snapshot sim) then 0
    else
      match Journal.Checkpoint.latest ~dir with
      | None -> 0
      | Some c ->
          if c.Journal.Checkpoint.upto_seq > n then
            Journal.Error.raise_
              (Journal.Error.State
                 (Printf.sprintf
                    "checkpoint generation %d subsumes %d records but the journal \
                     holds only %d — the WAL lost committed data"
                    c.Journal.Checkpoint.gen c.Journal.Checkpoint.upto_seq n));
          (try Simulator.restore sim c.Journal.Checkpoint.blob
           with Prelude.Codec.Error msg ->
             Journal.Error.raise_
               (Journal.Error.State
                  (Printf.sprintf "checkpoint generation %d does not restore: %s"
                     c.Journal.Checkpoint.gen msg)));
          c.Journal.Checkpoint.upto_seq
  in
  let sink =
    Journal.Sink.open_append ~fsync_interval_s ~path
      ~valid_end:loaded.Journal.Source.valid_end ~next_seq:n ()
  in
  let next_gen =
    match Journal.Checkpoint.generations ~dir with [] -> 0 | g :: _ -> g + 1
  in
  let t = { dir; checkpoint_every; sim; sink; next_gen; observer = ignore } in
  (* Full-log scan for the caller's bookkeeping (admission tables,
     docs/SERVER.md) — checkpoint-agnostic on purpose: the overlay skips
     re-execution, not history.  Undecodable records are skipped here;
     if one matters, replay fails closed on it below. *)
  (match observe with
  | None -> ()
  | Some f ->
      Array.iter
        (fun body ->
          match Wal.decode body with
          | r -> f r
          | exception Prelude.Codec.Error _ -> ())
        loaded.Journal.Source.records);
  (* Install the observer before replay: a step that crosses the end of
     the stored log emits new records through [live_emit], and the
     caller's bookkeeping must see those too — the scan above only
     covered stored history. *)
  (match observe with None -> () | Some f -> t.observer <- f);
  let on_input = Option.map (fun f r -> f sim r) on_input in
  let replayed =
    Recovery.replay ?on_input sim ~records:loaded.Journal.Source.records ~from_
      ~live:(live_emit t)
  in
  (* First thing after landing: cross-check the restored ledgers against
     the running-task registry before any live decision builds on them. *)
  (match Simulator.ledger_check sim with
  | Ok () -> ()
  | Error msg ->
      Journal.Error.raise_
        (Journal.Error.State ("post-recovery ledger check failed: " ^ msg)));
  if Obs.enabled () then begin
    Obs.Registry.incr (Obs.Registry.counter "journal.recoveries");
    Obs.Registry.incr ~by:replayed (Obs.Registry.counter "journal.replayed_records")
  end;
  {
    service = t;
    replayed;
    from_checkpoint = (if from_ > 0 then Some from_ else None);
  }

(* Stepped execution for callers that interleave the event loop with
   external input (docs/SERVER.md). *)
let step t = Simulator.step ~emit:(live_emit t) t.sim

let finish t =
  Journal.Sink.commit t.sink;
  Journal.Sink.close t.sink;
  Simulator.finish t.sim

(* Run to completion.  A [Journal.Sink.Crashed] from the journal.crash
   failpoint propagates to the caller with the sink already torn —
   exactly the state a real crash leaves behind. *)
let run t =
  while step t do
    ()
  done;
  finish t
