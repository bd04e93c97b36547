(* Parallel, resumable experiment-sweep CLI over lib/runner: enumerates
   the ⟨scheduler, μ, setup, seed⟩ cross product, executes each cell in
   an isolated worker process, caches results on disk keyed by the
   cell's content hash, and writes one CSV row per cell in deterministic
   enumeration order (identical whatever --jobs is).  Architecture and
   failure semantics: docs/RUNNER.md. *)

module Experiment = Harness.Experiment

let parse_setup = function
  | "homogeneous" | "homog" -> Sim.Cluster.Homogeneous
  | "heterogeneous" | "het" -> Sim.Cluster.Heterogeneous
  | other -> failwith (Printf.sprintf "unknown setup %S (homogeneous|heterogeneous)" other)

let sweep jobs resume no_cache state_dir cache_dir timeout retries schedulers mus setups seeds k
    horizon util fraction faults_on mtbf mttr max_retries solver_budget solver_steps
    guard out quiet =
  Failpt.init_env ();
  List.iter
    (fun s ->
      if not (List.mem s Schedulers.Registry.names) then
        failwith
          (Printf.sprintf "unknown scheduler %S (known: %s)" s
             (String.concat ", " Schedulers.Registry.names)))
    schedulers;
  let setups = List.map parse_setup setups in
  let faults =
    if not faults_on then None
    else
      Some
        {
          Faults.plan =
            {
              Faults.Plan.default_config with
              server_mtbf = mtbf;
              switch_mtbf = mtbf;
              server_mttr = mttr;
              switch_mttr = mttr;
            };
          policy = Faults.Policy.create ~max_retries ();
        }
  in
  let resilience =
    if solver_budget = None && solver_steps = None && guard = 0 then None
    else
      let budget =
        if solver_budget = None && solver_steps = None then None
        else Some (Flow.Budget.make ?max_wall_s:solver_budget ?max_steps:solver_steps ())
      in
      Some (Hire.Hire_scheduler.resilience ?budget ~guard_every:guard ())
  in
  Failpt.announce ();
  let base =
    {
      Experiment.default with
      k;
      horizon;
      target_utilization = util;
      inc_capable_fraction = fraction;
      faults;
      resilience;
    }
  in
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

let k =
  let doc = "Fat-tree arity." in
  Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc)

let horizon =
  let doc = "Trace length in simulated seconds." in
  Arg.(value & opt float 400.0 & info [ "horizon" ] ~docv:"SECONDS" ~doc)

let util =
  let doc = "Offered CPU load of the generated trace." in
  Arg.(value & opt float 0.8 & info [ "util" ] ~docv:"FRACTION" ~doc)

let fraction =
  let doc = "Fraction of switches that are INC-capable." in
  Arg.(value & opt (some float) None & info [ "inc-capable" ] ~docv:"FRACTION" ~doc)

let faults_flag =
  let doc = "Inject seeded node failures in every cell (docs/FAULTS.md)." in
  Arg.(value & flag & info [ "faults" ] ~doc)

let mtbf =
  let doc = "Mean time between failures per node, simulated seconds (with $(b,--faults))." in
  Arg.(value & opt float 200.0 & info [ "mtbf" ] ~docv:"SECONDS" ~doc)

let mttr =
  let doc = "Mean time to repair per node, simulated seconds (with $(b,--faults))." in
  Arg.(value & opt float 30.0 & info [ "mttr" ] ~docv:"SECONDS" ~doc)

let max_retries =
  let doc = "Requeue attempts per failure-hit task group (with $(b,--faults))." in
  Arg.(value & opt int 3 & info [ "max-retries" ] ~docv:"N" ~doc)

let solver_budget =
  let doc =
    "Cap each MCMF solve at $(docv) of monotonic wall clock; exhausted solves degrade \
     along the resilience fallback chain (docs/RESILIENCE.md).  Changes the cells' \
     cache keys."
  in
  Arg.(value & opt (some float) None & info [ "solver-budget" ] ~docv:"SECONDS" ~doc)

let solver_steps =
  let doc = "Cap each MCMF solve at $(docv) solver steps." in
  Arg.(value & opt (some int) None & info [ "solver-steps" ] ~docv:"N" ~doc)

let guard =
  let doc =
    "Run the runtime invariant guard on every $(docv)-th solve (0 disables it)."
  in
  Arg.(value & opt int 0 & info [ "guard" ] ~docv:"N" ~doc)

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
      $ schedulers $ mus $ setups $ seeds $ k $ horizon $ util $ fraction $ faults_flag
      $ mtbf $ mttr $ max_retries $ solver_budget $ solver_steps $ guard
      $ out $ quiet)

(* [~catch:false] so bad arguments surface as our one-line error + exit 1
   instead of cmdliner's "internal error" backtrace. *)
let () =
  try exit (Cmd.eval ~catch:false cmd)
  with Failure msg | Sys_error msg | Invalid_argument msg ->
    Printf.eprintf "hire_sweep: %s\n" msg;
    exit 1
