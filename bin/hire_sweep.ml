(* Parallel, resumable experiment-sweep CLI over lib/runner: enumerates
   the ⟨scheduler, μ, setup, seed⟩ cross product, executes each cell in
   an isolated worker process, caches results on disk keyed by the
   cell's content hash, and writes one CSV row per cell in deterministic
   enumeration order (identical whatever --jobs is).  Architecture and
   failure semantics: docs/RUNNER.md. *)

module Experiment = Harness.Experiment

let sweep jobs resume no_cache state_dir cache_dir timeout retries schedulers mus setups seeds
    base resilience out quiet =
  Failpt.init_env ();
  List.iter Cell_flags.check_scheduler schedulers;
  let setups = List.map Cell_flags.parse_setup setups in
  Failpt.announce ();
  let base = { base with Experiment.resilience } in
  let faults_on = base.faults <> None in
  let specs = Experiment.sweep base ~schedulers ~mus ~setups ~seeds in
  (* One --state-dir convention (docs/RUNNER.md): the result cache lives
     in <state-dir>/cache unless --cache-dir overrides it, the same
     layout hire_service uses for its journal (<state-dir>/journal). *)
  let cache_dir =
    match cache_dir with Some d -> d | None -> Filename.concat state_dir "cache"
  in
  let cache = if no_cache then None else Some (Runner.Cache.create cache_dir) in
  let log line = if not quiet then Printf.eprintf "%s\n%!" line in
  Printf.printf "hire_sweep: %d cells (%d scheduler(s) x %d mu(s) x %d setup(s) x %d seed(s)), jobs=%d%s\n%!"
    (List.length specs) (List.length schedulers) (List.length mus) (List.length setups)
    (List.length seeds) jobs
    (match cache with
    | None -> ", cache disabled"
    | Some c ->
        Printf.sprintf ", cache %s (%s)" (Runner.Cache.dir c)
          (if resume then "resume" else "overwrite"));
  (* A failpoint schedule perturbs results without changing the spec, so
     an armed sweep folds it into every key: its cells never share the
     cache with unarmed ones.  Unarmed keys are the plain cell keys. *)
  let key =
    match Failpt.describe () with
    | "" -> Experiment.cell_key
    | armed ->
        fun s -> Digest.to_hex (Digest.string (Experiment.cell_key s ^ "|failpoints=" ^ armed))
  in
  let outcomes, stats =
    Runner.run ~jobs ?timeout ~retries ?cache ~resume ~key
      ~label:Experiment.describe ~log ~f:Experiment.run specs
  in
  let rows =
    List.concat
      (List.map2
         (fun (s : Experiment.spec) (o : _ Runner.outcome) ->
           match o.result with
           | Ok r ->
               [
                 Sim.Csv_export.row ~faults:faults_on ~resilience:(resilience <> None)
                   ~scheduler:s.scheduler ~mu:s.mu ~setup:s.setup ~seed:s.seed r;
               ]
           | Error _ -> [])
         specs outcomes)
  in
  Runner.Cache.ensure_dir (Filename.dirname out);
  Sim.Csv_export.write_file ~faults:faults_on ~resilience:(resilience <> None) out rows;
  Printf.printf "%s\n" (Format.asprintf "%a" Runner.pp_stats stats);
  Printf.printf "%d row(s) written to %s\n" (List.length rows) out;
  let failures =
    List.concat
      (List.map2
         (fun (s : Experiment.spec) (o : _ Runner.outcome) ->
           match o.result with
           | Ok _ -> []
           | Error reason -> [ (s, o.key, o.attempts, reason) ])
         specs outcomes)
  in
  List.iter
    (fun (s, key, attempts, reason) ->
      Printf.printf "FAILED cell %s (key %s) after %d attempt(s): %s\n" (Experiment.describe s)
        key attempts
        (Runner.Pool.reason_to_string reason))
    failures;
  if failures <> [] then exit 2

open Cmdliner

let jobs =
  let doc =
    "Run cells on up to $(docv) forked worker processes concurrently, one child per \
     cell (docs/RUNNER.md)."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let resume =
  let doc =
    "Reuse cached results: cells whose content hash is already in the cache directory \
     are loaded instead of recomputed, so an interrupted sweep completes from where it \
     died.  Without $(b,--resume) every cell is recomputed (and the cache refreshed)."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let no_cache =
  let doc = "Disable the on-disk result cache entirely." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let state_dir =
  let doc =
    "State directory (docs/RUNNER.md): the result cache lives in $(docv)/cache.  \
     Shared convention with $(b,hire_service), whose journal lives in \
     $(docv)/journal."
  in
  Arg.(value & opt string "results" & info [ "state-dir" ] ~docv:"DIR" ~doc)

let cache_dir =
  let doc = "Override the cache directory (default: $(b,--state-dir)/cache)." in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let timeout =
  let doc =
    "Per-cell wall-clock budget in seconds; a cell exceeding it is SIGKILLed, retried \
     up to $(b,--retries) times, then reported as a structured failure."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let retries =
  let doc = "Extra attempts for a cell that crashed or timed out." in
  Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)

let schedulers =
  let doc = "Schedulers to sweep: " ^ String.concat ", " Schedulers.Registry.names ^ "." in
  Arg.(value & opt (list string) [ "hire" ] & info [ "schedulers" ] ~docv:"NAMES" ~doc)

let mus =
  let doc = "INC-request ratios to sweep (the paper's sweep axis)." in
  Arg.(value & opt (list float) [ 0.05; 0.25; 0.5; 0.75; 1.0 ] & info [ "mus" ] ~docv:"RATIOS" ~doc)

let setups =
  let doc = "Switch capability setups to sweep: homogeneous, heterogeneous." in
  Arg.(value & opt (list string) [ "homogeneous" ] & info [ "setups" ] ~docv:"SETUPS" ~doc)

let seeds =
  let doc = "Seeds per cell (the paper uses three)." in
  Arg.(value & opt (list int) [ 1; 2; 3 ] & info [ "seeds" ] ~docv:"INTS" ~doc)

let out =
  let doc = "CSV output file (one row per cell, enumeration order)." in
  Arg.(value & opt string (Filename.concat "results" "sweep_results.csv")
       & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let quiet =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-cell progress lines.")

let cmd =
  let doc = "run an experiment sweep in parallel with crash recovery" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Enumerates the ⟨scheduler, mu, setup, seed⟩ cross product and executes every \
         cell in an isolated child, on $(b,--jobs) forked worker processes in \
         parallel.  Results are cached on disk keyed by a content hash of the cell \
         config, so $(b,--resume) completes an interrupted sweep without recomputing \
         finished cells; a crashing or hanging cell is retried and then reported \
         without aborting the rest.  Output tables are byte-identical for any $(b,--jobs).  \
         See docs/RUNNER.md.";
      `S Manpage.s_exit_status;
      `P "0 on success, 1 on usage errors, 2 if any cell ultimately failed.";
    ]
  in
  Cmd.v
    (Cmd.info "hire_sweep" ~version:"1.0" ~doc ~man)
    Term.(
      const sweep $ jobs $ resume $ no_cache $ state_dir $ cache_dir $ timeout $ retries
      $ schedulers $ mus $ setups $ seeds $ Cell_flags.base $ Cell_flags.resilience $ out
      $ quiet)

(* [~catch:false] so bad arguments surface as our one-line error + exit 1
   instead of cmdliner's "internal error" backtrace. *)
let () =
  try exit (Cmd.eval ~catch:false cmd)
  with Failure msg | Sys_error msg | Invalid_argument msg ->
    Printf.eprintf "hire_sweep: %s\n" msg;
    exit 1
