(* Journaled scheduler service: one experiment cell run under a
   write-ahead log with periodic checkpoints, recoverable after a crash
   (docs/JOURNAL.md).  The spec is serialized into the WAL header, so
   [--recover] needs nothing but the state directory: the world is
   rebuilt from the stored blob, the newest checkpoint is overlaid, the
   torn tail is truncated, and the remaining records are replayed by
   deterministic re-execution before the run continues live.

   State layout (docs/RUNNER.md): everything lives under --state-dir,
   journal in <state-dir>/journal — the same convention hire_sweep uses
   for its result cache (<state-dir>/cache). *)

let journal_subdir = "journal"

(* Journaled runs substitute the simulated think time for the measured
   solver wall clock: replay must re-derive every record byte for byte,
   and wall time is the one nondeterministic input. *)
let config = { Sim.Simulator.default_config with deterministic_wall = true }

let run state_dir checkpoint_every recover scheduler mu setup base seed csv obs_summary serve
    socket tcp round_interval max_batch max_pending io_timeout =
  if obs_summary then Obs.set_enabled true;
  Failpt.announce ();
  let dir = Filename.concat state_dir journal_subdir in
  let spec_of_flags = { (Cell_flags.cell base ~scheduler ~mu ~setup) with seed } in
  let result, csv_spec =
    if serve then begin
      (* Admission-server mode (docs/SERVER.md): the journaled world
         fronted by a socket; every job arrives through the wire. *)
      if round_interval <= 0.0 || not (Float.is_finite round_interval) then
        failwith "--round-interval must be a positive number of seconds";
      if max_batch < 1 then failwith "--max-batch must be >= 1";
      if max_pending < 1 then failwith "--max-pending must be >= 1";
      let sconfig =
        {
          Server.Admission.default_config with
          round_interval;
          max_batch;
          max_pending;
          checkpoint_every;
        }
      in
      let engine =
        if recover then begin
          let r = Server.Admission.recover ~dir ~config:sconfig () in
          Printf.printf
            "recovered: %d record(s) replayed, %d pending admission(s) restored\n%!"
            r.Server.Admission.replayed r.Server.Admission.pending_recovered;
          r.Server.Admission.engine
        end
        else begin
          let spec = spec_of_flags in
          Printf.printf "serving %s from %s\n%!"
            (Harness.Experiment.describe spec)
            dir;
          Server.Admission.start ~dir ~config:sconfig spec
        end
      in
      let listen =
        match tcp with
        | Some hostport -> (
            match String.index_opt hostport ':' with
            | None -> failwith "expected HOST:PORT for --tcp"
            | Some i -> (
                let host = String.sub hostport 0 i in
                let rest = String.sub hostport (i + 1) (String.length hostport - i - 1) in
                match int_of_string_opt rest with
                | Some port -> Server.Net.Tcp (host, port)
                | None -> failwith "expected HOST:PORT for --tcp"))
        | None ->
            let path =
              match socket with
              | Some p -> p
              | None -> Filename.concat state_dir "server.sock"
            in
            Server.Net.Unix_sock path
      in
      (match listen with
      | Server.Net.Unix_sock p -> Printf.printf "listening on %s\n%!" p
      | Server.Net.Tcp (h, p) -> Printf.printf "listening on %s:%d\n%!" h p);
      let result =
        Server.Net.serve ~engine ~listen ~tick_interval:round_interval ~io_timeout ()
      in
      (result, Server.Admission.spec engine)
    end
    else begin
      let service =
        if recover then begin
          let r =
            Sim.Service.recover ~dir ~checkpoint_every
              ~rebuild:(fun header ->
                let spec = Harness.Experiment.spec_of_blob header in
                Printf.printf "recovering: %s\n%!" (Harness.Experiment.describe spec);
                Harness.Experiment.prepare ~config spec)
              ()
          in
          Printf.printf "recovered: %d record(s) replayed%s\n%!" r.Sim.Service.replayed
            (match r.Sim.Service.from_checkpoint with
            | None -> ", from genesis"
            | Some seq -> Printf.sprintf ", checkpoint covered seq < %d" seq);
          r.Sim.Service.service
        end
        else begin
          let spec = spec_of_flags in
          Printf.printf "journaling %s into %s\n%!" (Harness.Experiment.describe spec) dir;
          Sim.Service.start ~dir ~checkpoint_every
            ~header:(Harness.Experiment.spec_to_blob spec)
            (Harness.Experiment.prepare ~config spec)
        end
      in
      let result = Sim.Service.run service in
      (* The spec identity for the CSV row comes from the flags on a
         fresh start; on recovery re-read it from the journal header so
         the row labels match the journaled run, not the defaults. *)
      let csv_spec =
        if recover then
          match Journal.Source.load ~path:(Filename.concat dir "wal.bin") with
          | Ok l -> Harness.Experiment.spec_of_blob l.Journal.Source.header
          | Error e -> Journal.Error.raise_ e
        else spec_of_flags
      in
      (result, csv_spec)
    end
  in
  let report = result.Sim.Simulator.report in
  Printf.printf "%s\n" (Format.asprintf "%a" Sim.Metrics.pp_report report);
  (match csv with
  | None -> ()
  | Some path ->
      let spec = csv_spec in
      let row =
        Sim.Csv_export.row ~faults:(spec.Harness.Experiment.faults <> None) ~resilience:false
          ~scheduler:spec.Harness.Experiment.scheduler ~mu:spec.Harness.Experiment.mu
          ~setup:spec.Harness.Experiment.setup ~seed:spec.Harness.Experiment.seed report
      in
      Sim.Csv_export.write_file
        ~faults:(spec.Harness.Experiment.faults <> None)
        ~resilience:false path [ row ];
      Printf.printf "metrics row written to %s\n" path);
  if obs_summary then begin
    Printf.printf "--- observability summary ---\n%!";
    Format.printf "%a%!" Obs.Registry.pp_summary ()
  end

open Cmdliner

let state_dir =
  let doc =
    "State directory (docs/RUNNER.md): the journal lives in \
     $(docv)/journal.  Shared convention with $(b,hire_sweep)'s result \
     cache ($(docv)/cache)."
  in
  Arg.(value & opt string (Filename.concat "results" "service")
       & info [ "state-dir"; "journal-dir" ] ~docv:"DIR" ~doc)

let checkpoint_every =
  let doc =
    "Write a full state checkpoint every $(docv) scheduling rounds, so recovery \
     replays only the WAL suffix past the newest checkpoint.  0 disables \
     checkpoints (recovery replays from genesis)."
  in
  Arg.(value & opt int 250 & info [ "checkpoint-every" ] ~docv:"ROUNDS" ~doc)

let recover =
  let doc =
    "Resume a crashed run from $(b,--state-dir): truncate the torn WAL tail, rebuild \
     the world from the journaled spec, overlay the newest checkpoint, replay the \
     remaining records, and continue to completion.  All spec flags are ignored — the \
     spec comes from the journal header."
  in
  Arg.(value & flag & info [ "recover" ] ~doc)

let seed =
  let doc = "Seed of the run (one journal = one cell; sweeps drive hire_sweep)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"INT" ~doc)

let csv =
  let doc = "Write the final metric row to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let obs_summary =
  let doc =
    "Enable instrumentation and print the observability registry after the run \
     (includes the journal.* and server.* counters)."
  in
  Arg.(value & flag & info [ "obs-summary" ] ~doc)

let serve =
  let doc =
    "Run as the admission-API server (docs/SERVER.md): instead of replaying the \
     spec's trace to completion, listen on a socket for newline-delimited JSON \
     job submissions, journal each accepted one before acknowledging it \
     (WAL-before-ack), and hand batches to the scheduler every \
     $(b,--round-interval) seconds.  Combine with $(b,--horizon 0) so every job \
     comes through the wire, and with $(b,--recover) to resume a crashed server."
  in
  Arg.(value & flag & info [ "serve" ] ~doc)

let socket =
  let doc = "Unix-domain socket path (default: $(b,--state-dir)/server.sock)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp =
  let doc = "Listen on TCP $(docv) instead of a Unix-domain socket." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let round_interval =
  let doc =
    "Scheduling cadence of $(b,--serve), seconds: pending admissions are flushed \
     into the simulator as one batch every $(docv) of wall time, and consecutive \
     batches are spaced $(docv) apart in simulated time."
  in
  Arg.(value & opt float 1.0 & info [ "round-interval" ] ~docv:"SECONDS" ~doc)

let max_batch =
  let doc = "Flush early once $(docv) admissions are pending (with $(b,--serve))." in
  Arg.(value & opt int 64 & info [ "max-batch" ] ~docv:"N" ~doc)

let max_pending =
  let doc =
    "Backpressure bound of $(b,--serve): submissions beyond $(docv) pending are \
     rejected with $(i,queue_full) instead of being journaled."
  in
  Arg.(value & opt int 1024 & info [ "max-pending" ] ~docv:"N" ~doc)

let io_timeout =
  let doc =
    "Containment deadline of $(b,--serve), seconds: a connection that takes \
     longer than $(docv) to finish a started request line (slow-loris) or to \
     accept a queued reply (stalled reader) is closed and counted as \
     $(i,server.conn_timeouts)."
  in
  Arg.(value & opt float 30.0 & info [ "io-timeout" ] ~docv:"SECONDS" ~doc)

let cmd =
  let doc = "run one scheduling experiment under a crash-recoverable journal" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs one experiment cell with a write-ahead log underneath \
         (docs/JOURNAL.md): every scheduling decision is logged before it takes \
         effect, every round commit is fsynced, and full state checkpoints are \
         written periodically.  After a crash, $(b,--recover) lands back on the \
         uninterrupted run's state byte for byte and continues.";
      `S Manpage.s_exit_status;
      `P
        "9 when the journal.crash failpoint fires \
         (HIRE_FAILPOINTS='journal.crash=N*off->crash(TEAR)', docs/FAILPOINTS.md): \
         the append of WAL record N lands TEAR bytes and the process dies.";
    ]
  in
  Cmd.v
    (Cmd.info "hire_service" ~version:"1.0" ~doc ~man)
    Term.(
      const run $ state_dir $ checkpoint_every $ recover $ Cell_flags.scheduler
      $ Cell_flags.mu $ Cell_flags.setup $ Cell_flags.base $ seed $ csv $ obs_summary $ serve
      $ socket $ tcp $ round_interval $ max_batch $ max_pending $ io_timeout)

(* Error convention shared with hire_sim: one line on stderr, exit 1 —
   bad flags, unreadable state directories, and journal failures all
   land the same way, so scripts can branch on the exit code alone. *)
let () =
  try exit (Cmd.eval ~catch:false cmd) with
  | Journal.Sink.Crashed seq ->
      Printf.eprintf "hire_service: injected crash at WAL seq %d\n" seq;
      exit 9
  | Journal.Error.Journal_error e ->
      Printf.eprintf "hire_service: %s\n" (Journal.Error.to_string e);
      exit 1
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "hire_service: %s%s: %s\n" fn
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e);
      exit 1
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      Printf.eprintf "hire_service: %s\n" msg;
      exit 1
