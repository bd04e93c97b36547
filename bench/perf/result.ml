(* Metric definitions, the result record, its JSON forms, run metadata,
   and the comparator.

   Every workload reports every metric of its section: the end-to-end
   section in an untraced run, the per-layer section in a traced one.  A
   per-layer metric a workload does not exercise (the journal on a
   simulation workload, the flow solver on the baselines) reads 0. *)

module Json = Server.Json

type def = { name : string; unit : string; better : [ `Lower | `Higher ] }

let d name unit better = { name; unit; better }

let end_to_end =
  [
    d "setup_s" "s" `Lower;
    d "latency_ms" "ms" `Lower;
    d "throughput_per_s" "1/s" `Higher;
    d "peak_rss_mb" "MB" `Lower;
  ]

let per_layer =
  [
    d "harness.prepare_s" "s" `Lower;
    d "topology.cluster_create_s" "s" `Lower;
    d "workload.trace_gen_s" "s" `Lower;
    d "workload.scenario_build_s" "s" `Lower;
    d "schedulers.create_s" "s" `Lower;
    d "schedulers.round_p50_ms" "ms" `Lower;
    d "schedulers.round_p90_ms" "ms" `Lower;
    d "schedulers.round_p99_ms" "ms" `Lower;
    d "schedulers.rounds_per_job" "count" `Lower;
    d "schedulers.useful_round_ratio" "ratio" `Higher;
    d "schedulers.submit_us" "us" `Lower;
    d "schedulers.complete_us" "us" `Lower;
    d "hire.build_ms" "ms" `Lower;
    d "hire.build_p99_ms" "ms" `Lower;
    d "hire.other_ms" "ms" `Lower;
    d "hire.net.arcs_mean" "count" `Lower;
    d "hire.net.touched_ratio" "ratio" `Lower;
    d "hire.net.full_rebuild_ratio" "ratio" `Lower;
    d "flow.solve_ms" "ms" `Lower;
    d "flow.solve_p99_ms" "ms" `Lower;
    d "flow.solves_per_round" "ratio" `Lower;
    d "flow.bucket_ratio" "ratio" `Higher;
    d "sim.step_self_us" "us" `Lower;
    d "sim.events_per_job" "count" `Lower;
    d "sim.finish_ms" "ms" `Lower;
    d "serve.max_rate_per_s" "1/s" `Higher;
    d "serve.ack_p50_ms" "ms" `Lower;
    d "serve.ack_p99_ms" "ms" `Lower;
    d "serve.recover_s" "s" `Lower;
    d "server.ack_p50_ms" "ms" `Lower;
    d "server.ack_p99_ms" "ms" `Lower;
    d "server.transport_p50_ms" "ms" `Lower;
    d "server.sched_share" "ratio" `Lower;
    d "journal.fsync_p50_ms" "ms" `Lower;
    d "journal.fsync_p99_ms" "ms" `Lower;
    d "journal.commits_per_admit" "ratio" `Lower;
    d "journal.bytes_per_admit" "bytes" `Lower;
    d "journal.recover_us_per_record" "us" `Lower;
    d "runtime.minor_words_per_op" "words" `Lower;
    d "runtime.major_words_per_op" "words" `Lower;
    d "runtime.major_collections_per_kop" "count" `Lower;
    d "obs.overhead_ratio" "ratio" `Lower;
    d "bench.unattributed_ratio" "ratio" `Lower;
    d "bench.gen_late_p99_ms" "ms" `Lower;
  ]

type t = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (* by metric name *)
  samples : (string * int) list;  (* sample counts behind the values *)
  measured_s : float;  (* host seconds the measurement took *)
  host_factor : float;  (* [Calibration.factor] of the untraced run *)
}

let defs r = if r.trace then per_layer else end_to_end

(* A missing or non-finite value reads 0, so the metric set is always
   complete. *)
let value r name =
  match List.assoc_opt name r.values with
  | Some v when Float.is_finite v -> v
  | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Metadata                                                            *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let nproc () =
  match read_file "/proc/cpuinfo" with
  | s ->
      List.length
        (List.filter (String.starts_with ~prefix:"processor") (String.split_on_char '\n' s))
  | exception Sys_error _ -> Domain.recommended_domain_count ()

(* The checked-out revision, read from .git without running git; a
   source tree without .git, or with a packed branch ref, reports
   "unknown". *)
let git_revision () =
  match String.trim (read_file ".git/HEAD") with
  | head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      try String.trim (read_file (Filename.concat ".git" ref_)) with Sys_error _ -> "unknown")
  | rev -> rev
  | exception Sys_error _ -> "unknown"

(* VmHWM of a process, in MB; [pid] defaults to this one. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with Some p -> Printf.sprintf "/proc/%d/status" p | None -> "/proc/self/status"
  in
  let kb l = Scanf.sscanf_opt l "VmHWM: %f kB" Fun.id in
  match read_file path with
  | exception Sys_error _ -> 0.0
  | s -> (
      match List.find_map kb (String.split_on_char '\n' s) with
      | Some kb -> kb /. 1024.0
      | None -> 0.0)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* %.17g keeps every digit of a measured value. *)
let num f = Printf.sprintf "%.17g" f

let metrics_json r =
  "{"
  ^ String.concat ","
      (List.map
         (fun d ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" d.name (num (value r d.name)) d.unit)
         (defs r))
  ^ "}"

(* The last line of a run's output: exactly these four keys. *)
let summary_line r =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}" r.correct
    r.attempted r.failed (metrics_json r)

let file_line r =
  Printf.sprintf
    "{\"schema\":1,\"workload\":%S,\"seed\":%d,\"seconds\":%d,\"trace\":%b,\"meta\":{\"nproc\":%d,\"domains\":%d,\"git\":%S,\"ocaml\":%S,\"measured_s\":%s,\"host_factor\":%s},\"samples\":{%s},\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}"
    r.workload r.seed r.seconds r.trace (nproc ()) (Domain.recommended_domain_count ())
    (git_revision ()) Sys.ocaml_version (num r.measured_s) (num r.host_factor)
    (String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%S:%d" k n) r.samples))
    r.correct r.attempted r.failed (metrics_json r)

let print_human oc r =
  Printf.fprintf oc "%s seed=%d seconds=%d trace=%b nproc=%d domains=%d git=%s ocaml=%s\n"
    r.workload r.seed r.seconds r.trace (nproc ()) (Domain.recommended_domain_count ())
    (git_revision ()) Sys.ocaml_version;
  Printf.fprintf oc "  measured %.1f s; host factor %.3f; samples: %s\n" r.measured_s r.host_factor
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.samples));
  List.iter
    (fun d -> Printf.fprintf oc "  %-36s %14.6g %s\n" d.name (value r d.name) d.unit)
    (defs r);
  Printf.fprintf oc "  correct=%b attempted=%d failed=%d\n" r.correct r.attempted r.failed

(* ------------------------------------------------------------------ *)
(* Comparator                                                          *)
(* ------------------------------------------------------------------ *)

let json_num = function Json.Num f -> Some f | _ -> None

(* Result objects from a file: one JSON object per non-empty line. *)
let load path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.parse l with Ok v -> v | Error e -> failwith (path ^ ": " ^ e))

(* Bounds from BENCHMARK.json, by end-to-end metric name. *)
let bounds path =
  match Json.parse (read_file path) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok v ->
      Option.value ~default:[] (Option.bind (Json.member "end_to_end" v) Json.to_list)
      |> List.filter_map (fun m ->
             match
               (Option.bind (Json.member "name" m) Json.to_str,
                Option.bind (Json.member "bound" m) json_num)
             with
             | Some n, Some b -> Some (n, b)
             | _ -> None)

let metric_value v name =
  let ( >>= ) = Option.bind in
  Json.member "metrics" v >>= Json.member name >>= Json.member "value" >>= json_num

let workload_of v = Option.value ~default:"?" (Option.bind (Json.member "workload" v) Json.to_str)
let untraced v = Json.member "trace" v = Some (Json.Bool false)

(* One row per workload x end-to-end metric.  The verdict follows the
   bound: a median more than [bound] worse than the baseline's is worse,
   more than [bound] better is better, anything else the same.  When
   either side's own spread (interquartile range over median) exceeds
   the bound the row is unresolved, unless every run of B reads better,
   or every run worse, than every run of A.  Returns the number of rows
   judged worse. *)
let compare_files ~benchmark a b =
  let bounds = bounds benchmark in
  let ra = List.filter untraced (load a) and rb = List.filter untraced (load b) in
  let workloads = List.sort_uniq compare (List.map workload_of (ra @ rb)) in
  Printf.printf "%-14s %-18s %12s %8s %12s %8s %7s %8s  %s\n" "workload" "metric" "A median" "A iqr"
    "B median" "B iqr" "bound" "change" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      let of_w rs = List.filter (fun r -> workload_of r = w) rs in
      let wa = of_w ra and wb = of_w rb in
      List.iter
        (fun d ->
          let vals rs = List.filter_map (fun r -> metric_value r d.name) rs in
          let va = vals wa and vb = vals wb in
          let bound = Option.value ~default:0.0 (List.assoc_opt d.name bounds) in
          if va <> [] && vb <> [] then begin
            let ma = Samples.median_list va and mb = Samples.median_list vb in
            let sa = if List.length va >= 2 then Samples.spread va else 0.0 in
            let sb = if List.length vb >= 2 then Samples.spread vb else 0.0 in
            let change = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
            let worse_by = match d.better with `Lower -> change | `Higher -> -.change in
            let beats x y = match d.better with `Lower -> x < y | `Higher -> x > y in
            let all_b_beat_a = List.for_all (fun b -> List.for_all (beats b) va) vb in
            let all_a_beat_b = List.for_all (fun a -> List.for_all (beats a) vb) va in
            let verdict =
              if Float.max sa sb > bound then
                if all_b_beat_a then "better" else if all_a_beat_b then "worse" else "unresolved"
              else if worse_by > bound then "worse"
              else if worse_by < -.bound then "better"
              else "same"
            in
            if verdict = "worse" then incr worse;
            Printf.printf "%-14s %-18s %12.6g %7.1f%% %12.6g %7.1f%% %6.1f%% %+7.1f%%  %s\n" w
              d.name ma (100.0 *. sa) mb (100.0 *. sb) (100.0 *. bound) (100.0 *. change)
              verdict
          end)
        end_to_end)
    workloads;
  !worse
