(* The admission-server workload.

   A forked child runs [Server.Admission] + [Server.Net] on a Unix socket
   with the default configuration; this process is the load generator:
   one process, two connections, open-loop traffic at a fixed rate, 80 %
   submissions and 20 % status reads of an earlier admission.  Each
   request is timed from the moment it was due, so a stalled server
   charges its stall to every request queued behind it; the generator's
   own lateness is reported beside it.

   The operating point runs at 100/s, then the server is killed with
   SIGKILL and its journal recovered in this process: every acknowledged
   admission must come back.  A closed loop on a fresh server measures
   its capacity and its acknowledgments, in segments with
   reference-kernel samples between them ([Calibration]), and in a
   traced run a ladder of rates, a fresh server each, finds the
   highest rate that still meets the latency limit.  In the traced run
   the child enables Obs and writes its registry when [serve] returns,
   so traced phases end with a [shutdown] request.

   At 100/s the median acknowledgment is the fast path (parse, WAL
   append, fsync, reply); at 200/s about 40 % of them queue behind an
   inline batch flush and the median swings between the two modes. *)

module Json = Server.Json
module Protocol = Server.Protocol
module Admission = Server.Admission
module Clock = Prelude.Clock
module Rng = Prelude.Rng

let config = Admission.default_config
let tick_interval = 1.0
let operating_rate = 100.0
let ladder_rates = [ 200.0; 300.0; 400.0; 500.0; 600.0; 800.0 ]

(* Requests per rung and at least at the operating point: enough for
   >= 1000 acknowledgments, so that ack p99 has ten samples beyond it. *)
let rung_requests = 1300

(* The closed loop: each connection sends its next request when its
   previous one is answered, like a client that waits for its reply, in
   segments of [segment_requests] (ten batches).  Every 64th submission
   fills the batch and waits for the flush.  With 32 requests outstanding
   on each connection the server answered no more per second, but how
   many of them a flush held back depended on how they happened to
   arrive, and the mean acknowledgment spread by up to 15 % between runs,
   against 5-6 % here. *)
let window = 1
let segment_requests = 10 * Admission.default_config.max_batch

(* A rung passes when ack p99 is within the limit, every request is
   answered 1 s after the last send, and the generator kept its schedule. *)
let ack_limit_s = 0.250
let late_limit_s = 0.010
let answer_grace_s = 1.0

(* ------------------------------------------------------------------ *)
(* The server child                                                    *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; dir : string; sock : string }

(* Counters and histograms of the child's registry, one per line, and
   its allocation totals. *)
let write_registry path =
  Out_channel.with_open_bin path (fun oc ->
      let g = Gc.quick_stat () in
      Printf.fprintf oc "g %.17g %.17g %d\n" g.Gc.minor_words g.Gc.major_words g.Gc.major_collections;
      List.iter (fun (n, v) -> Printf.fprintf oc "c %s %d\n" n v) (Obs.Registry.counters ());
      List.iter
        (fun (n, h) ->
          Printf.fprintf oc "h %s %d %.17g %.17g %.17g\n" n (Obs.Histogram.count h)
            (Obs.Histogram.sum h) (Obs.Histogram.quantile h 0.5) (Obs.Histogram.quantile h 0.99))
        (Obs.Registry.histograms ()))

type registry = {
  counters : (string * int) list;
  hists : (string * (int * float * float * float)) list;  (* count, sum, p50, p99 *)
  gc : float * float * int;  (* minor words, major words, major collections *)
}

let read_registry path =
  let lines =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> String.split_on_char '\n' s
    | exception Sys_error _ -> []
  in
  List.fold_left
    (fun r l ->
      match String.split_on_char ' ' l with
      | [ "g"; minor; major; n ] ->
          { r with gc = (float_of_string minor, float_of_string major, int_of_string n) }
      | [ "c"; n; v ] -> { r with counters = (n, int_of_string v) :: r.counters }
      | [ "h"; n; c; s; p50; p99 ] ->
          let f = float_of_string in
          { r with hists = (n, (int_of_string c, f s, f p50, f p99)) :: r.hists }
      | _ -> r)
    { counters = []; hists = []; gc = (0.0, 0.0, 0) } lines

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

(* The server is one fixed deployment, [Experiment.default] (seed 1):
   the run's seed draws the traffic only.  Seeding the server too drew
   its INC-capable switches, and the rate of a closed loop then moved by
   25 % from one seed to the next. *)
let server_spec = { Harness.Experiment.default with horizon = 0.0 }

let start ~traced dir =
  rm_rf dir;
  Sys.mkdir dir 0o755;
  (* Relative, so it stays within the 108-byte limit of a socket path
     wherever the checkout lives. *)
  let sock = Filename.concat dir "s.sock" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try
          if traced then Obs.set_enabled true;
          let engine = Admission.start ~dir:(Filename.concat dir "journal") ~config server_spec in
          let (_ : Sim.Simulator.result) =
            Server.Net.serve ~engine ~listen:(Server.Net.Unix_sock sock) ~tick_interval ()
          in
          if traced then write_registry (Filename.concat dir "obs.txt");
          0
        with _ -> 1
      in
      Unix._exit code
  | pid -> { pid; dir; sock }

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid : int * Unix.process_status)

(* Wait up to [within] seconds for the child to exit by itself, then
   kill it. *)
let reap s ~within =
  let deadline = Clock.now () +. within in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Clock.now () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ -> kill s
    | _ -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The generator                                                       *)
(* ------------------------------------------------------------------ *)

type kind = Submit | Status

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable out : string;
  waiting : (kind * float) Queue.t;  (* kind, due *)
}

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () ->
      Unix.set_nonblock fd;
      Some { fd; inbuf = Buffer.create 4096; out = ""; waiting = Queue.create () }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* [n] connections to a freshly started server, polling until it
   accepts the first. *)
let connect_all s n =
  let deadline = Clock.now () +. 30.0 in
  let rec first () =
    match connect s.sock with
    | Some c -> c
    | None ->
        if Clock.now () > deadline then failwith "server did not come up";
        Unix.sleepf 0.002;
        first ()
  in
  let c = first () in
  c :: List.init (n - 1) (fun _ -> Option.get (connect s.sock))

let close_all conns = List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns

(* Submissions of the shape bench/bench_server.ml sends (BENCH_8) and
   hire_client generates, a pure function of (seed, k). *)
let job_spec ~seed k =
  let rng = Rng.create ((seed * 1_000_003) + k) in
  let groups =
    List.init (Rng.int_in rng 1 3) (fun g ->
        {
          Workload.Job.tg_index = g;
          count = Rng.int_in rng 1 6;
          cpu = Rng.float_in rng 0.5 4.0;
          mem = Rng.float_in rng 0.5 4.0;
          duration = Rng.float_in rng 1.0 15.0;
        })
  in
  let priority = if Rng.bernoulli rng 0.3 then Workload.Job.Service else Workload.Job.Batch in
  { Protocol.priority; groups; inc = (if k mod 4 = 0 then Protocol.Auto else Protocol.No_inc);
    client_id = None }

type phase = {
  ack : Samples.t;  (* submissions: due -> acknowledgment *)
  status : Samples.t;  (* status reads: due -> reply *)
  late : Samples.t;  (* send - due *)
  acked : int Queue.t;  (* admission ids, in ack order *)
  mutable sent : int;
  mutable errors : int;  (* error replies *)
  mutable unanswered : int;  (* no reply [answer_grace_s] after the last send *)
  replied : Samples.t;  (* when each request was answered *)
}

(* Open loop at a fixed rate, or closed loop with a fixed number of
   requests outstanding on each connection. *)
type load = Rate of float | Window of int

(* Send [n] requests over [conns], request i on connection i mod
   |conns|.  At [Rate r] request i is due at t0 + i / r; in a [Window]
   it is due when its connection has room. *)
let drive conns ~seed ~load ~n ~first =
  let p =
    { ack = Samples.create (); status = Samples.create (); late = Samples.create ();
      acked = Queue.create (); sent = 0; errors = 0; unanswered = 0; replied = Samples.create () }
  in
  let ids = ref [||] and n_ids = ref 0 in
  let remember id =
    if !n_ids = Array.length !ids then ids := Array.append !ids (Array.make (max 64 !n_ids) 0);
    !ids.(!n_ids) <- id;
    incr n_ids
  in
  let rng = Rng.create (seed + first) in
  let conns = Array.of_list conns in
  let conn i = conns.(i mod Array.length conns) in
  let t0 = Clock.now () +. 0.01 in
  let due i now = match load with Rate r -> t0 +. (float_of_int i /. r) | Window _ -> now in
  let ready i now =
    match load with
    | Rate r -> t0 +. (float_of_int i /. r) <= now
    | Window w -> Queue.length (conn i).waiting < w
  in
  let last_send = ref t0 in
  let chunk = Bytes.create 65536 in
  let reply c line =
    match Queue.take_opt c.waiting with
    | None -> p.errors <- p.errors + 1
    | Some (kind, d) -> (
        let now = Clock.now () in
        Samples.add p.replied now;
        match Json.parse line with
        | Ok v when Json.member "ok" v = Some (Json.Bool true) -> (
            match kind with
            | Submit -> (
                Samples.add p.ack (now -. d);
                Spans.record "serve.submit" ~t0:d ~t1:now;
                match Option.bind (Json.member "id" v) Json.to_int with
                | Some id ->
                    Queue.add id p.acked;
                    remember id
                | None -> p.errors <- p.errors + 1)
            | Status ->
                Samples.add p.status (now -. d);
                Spans.record "serve.status" ~t0:d ~t1:now)
        | _ -> p.errors <- p.errors + 1)
  in
  let read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "server closed a connection"
    | k ->
        Buffer.add_subbytes c.inbuf chunk 0 k;
        let data = Buffer.contents c.inbuf in
        let rec lines start =
          match String.index_from_opt data start '\n' with
          | Some j ->
              reply c (String.sub data start (j - start));
              lines (j + 1)
          | None ->
              Buffer.clear c.inbuf;
              Buffer.add_substring c.inbuf data start (String.length data - start)
        in
        lines 0
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let write c =
    match Unix.write_substring c.fd c.out 0 (String.length c.out) with
    | k -> c.out <- String.sub c.out k (String.length c.out - k)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let outstanding () = Array.fold_left (fun s c -> s + Queue.length c.waiting) 0 conns in
  let i = ref 0 in
  let sent_all () = !i >= n in
  let stop = ref false in
  while not !stop do
    let now = Clock.now () in
    while (not (sent_all ())) && ready !i now do
      let c = conn !i in
      let kind = if !n_ids > 0 && Rng.bernoulli rng 0.2 then Status else Submit in
      let line =
        match kind with
        | Submit -> Protocol.render_submit (job_spec ~seed (first + !i))
        | Status -> Printf.sprintf "{\"op\":\"status\",\"id\":%d}" !ids.(Rng.int rng !n_ids)
      in
      let d = due !i now in
      c.out <- c.out ^ line ^ "\n";
      Queue.add (kind, d) c.waiting;
      Samples.add p.late (now -. d);
      last_send := now;
      p.sent <- p.sent + 1;
      incr i
    done;
    Array.iter (fun c -> if c.out <> "" then write c) conns;
    if sent_all () && (outstanding () = 0 || now > !last_send +. answer_grace_s) then stop := true
    else begin
      let wake =
        match load with
        | Rate _ when not (sent_all ()) -> due !i now
        | _ -> now +. 0.05
      in
      let timeout = Float.max 0.0 (Float.min (wake -. now) 0.05) in
      let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
      let wr = List.filter_map (fun c -> if c.out <> "" then Some c.fd else None) (Array.to_list conns) in
      let readable, _, _ =
        try Unix.select fds wr [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      Array.iter (fun c -> if List.mem c.fd readable then read c) conns
    end
  done;
  p.unanswered <- outstanding ();
  p

let describe rate p =
  let f q s = match Samples.percentile s q with Some v -> Printf.sprintf "%.1f" (1e3 *. v) | None -> "-" in
  Printf.sprintf "%4.0f/s: sent %d, ack p50 %s p99 %s ms, generator late p99 %s ms, errors %d, unanswered %d"
    rate p.sent (f 0.5 p.ack) (f 0.99 p.ack) (f 0.99 p.late) p.errors p.unanswered

let passes p =
  p.errors = 0 && p.unanswered = 0
  && (match Samples.percentile p.ack 0.99 with Some v -> v <= ack_limit_s | None -> false)
  && match Samples.percentile p.late 0.99 with Some v -> v <= late_limit_s | None -> false

(* ------------------------------------------------------------------ *)
(* A run                                                               *)
(* ------------------------------------------------------------------ *)

type run = {
  op : phase;  (* the operating point *)
  segments : phase list;  (* the closed loop; untraced runs only *)
  setups : float list;  (* [probe_setups]; untraced runs only *)
  calibration : Calibration.t;
  rss_mb : float;  (* the operating-point server's VmHWM *)
  recover_s : float;
  replayed : int;
  lost : int;  (* acknowledged admissions missing after recovery *)
  rungs : (float * phase) list;  (* the ladder, in order *)
  registry : registry;  (* the child's Obs registry (traced run) *)
  measured_s : float;
}

let stop_server ~traced s conns =
  if traced then begin
    (* a clean shutdown, so the child writes its registry *)
    let c = List.hd conns in
    Unix.clear_nonblock c.fd;
    let msg = "{\"op\":\"shutdown\"}\n" in
    ignore (Unix.write_substring c.fd msg 0 (String.length msg) : int);
    close_all conns;
    reap s ~within:60.0
  end
  else begin
    close_all conns;
    kill s
  end

(* One fresh server driven by [work] over two connections; returns what
   [work] returns and the (stopped) server. *)
let phase ~traced ~dir ?(before_stop = fun _ -> ()) work =
  Spans.span "bench.phase" @@ fun () ->
  let s = Spans.span "server.start" (fun () -> start ~traced dir) in
  let conns =
    try Spans.span "server.connect" (fun () -> connect_all s 2)
    with e ->
      kill s;
      raise e
  in
  let v =
    Fun.protect
      ~finally:(fun () ->
        Spans.span "server.stop" (fun () ->
            before_stop s;
            stop_server ~traced s conns))
      (fun () -> Spans.span "bench.drive" (fun () -> work conns))
  in
  (v, s)

(* Set-up time alone: server engines started in this process, each on a
   fresh journal directory and closed at once, [probes_per_segment]
   after each segment of the closed loop, while its server idles.
   This is the work a server does between its start and accepting its
   first connection, without the fork and the connect polling, whose cost
   is the benchmark's own and was as large as the start itself.  One
   takes about 3 ms. *)
let probes_per_segment = 5

let probe_setups ~root n =
  List.init n (fun i ->
      let dir = Filename.concat root (Printf.sprintf "p%d" i) in
      Sys.mkdir dir 0o755;
      let t0 = Clock.now () in
      let engine = Admission.start ~dir:(Filename.concat dir "journal") ~config server_spec in
      let setup_s = Clock.now () -. t0 in
      ignore (Admission.finish engine : Sim.Simulator.result);
      rm_rf dir;
      setup_s)

(* Segments of [segment_requests] while one more fits before [deadline]
   at the mean segment time so far, and at least one.  A segment ends
   when every reply is in; then come its reference-kernel samples and
   its set-up probes. *)
let closed_loop ~seed ~root ~deadline calibration setups conns =
  let t0 = Clock.now () in
  let rec go k acc =
    let now = Clock.now () in
    if k > 0 && now +. ((now -. t0) /. float_of_int k) > deadline then List.rev acc
    else begin
      let p =
        drive conns ~seed ~load:(Window window) ~n:segment_requests
          ~first:(2_000_000 + (k * segment_requests))
      in
      ignore (Calibration.sample calibration ~busy_s:(Clock.now () -. now) : float);
      setups := probe_setups ~root probes_per_segment @ !setups;
      go (k + 1) (p :: acc)
    end
  in
  go 0 []

(* Untraced: the operating point for 20 % of [seconds], recovery of its
   journal, and the closed loop until [seconds] have passed.
   Traced: the operating point alone, for [rung_requests] so that its
   tails can be reported.  With [ladder], the rate ladder follows. *)
let run ~seed ~seconds ~traced ~ladder ~root =
  let t_start = Clock.now () in
  rm_rf root;
  Sys.mkdir root 0o755;
  let calibration = Calibration.create () and setups = ref [] in
  let rss = ref 0.0 in
  let op, s =
    phase ~traced ~dir:(Filename.concat root "op")
      ~before_stop:(fun s -> rss := Result.peak_rss_mb ~pid:s.pid ())
      (fun conns ->
        drive conns ~seed ~load:(Rate operating_rate)
          ~n:(if traced then rung_requests else int_of_float (operating_rate *. seconds *. 0.2))
          ~first:0)
  in
  let registry = read_registry (Filename.concat s.dir "obs.txt") in
  let t = Clock.now () in
  let r =
    Spans.span "journal.recover" (fun () ->
        Admission.recover ~dir:(Filename.concat s.dir "journal") ~config ())
  in
  let recover_s = Clock.now () -. t in
  let lost =
    Spans.span "bench.check" (fun () ->
        Queue.fold
          (fun n id -> if Admission.status r.Admission.engine id = None then n + 1 else n)
          0 op.acked)
  in
  let segments =
    if traced then []
    else
      fst
        (phase ~traced ~dir:(Filename.concat root "sat")
           (closed_loop ~seed ~root ~deadline:(t_start +. seconds) calibration setups))
  in
  let rec climb acc = function
    | rate :: rest when ladder ->
        let p, _ =
          phase ~traced ~dir:(Filename.concat root (Printf.sprintf "r%.0f" rate)) (fun conns ->
              drive conns ~seed ~load:(Rate rate) ~n:rung_requests ~first:1_000_000)
        in
        let acc = (rate, p) :: acc in
        if passes p then climb acc rest else List.rev acc
    | _ -> List.rev acc
  in
  let rungs = climb [] ladder_rates in
  rm_rf root;
  {
    op;
    segments;
    setups = !setups;
    calibration;
    rss_mb = !rss;
    recover_s;
    replayed = r.Admission.replayed;
    lost;
    rungs;
    registry;
    measured_s = Clock.now () -. t_start;
  }

(* The highest rung that met the limit, 0 if even the first missed. *)
let max_rate r =
  List.fold_left (fun m (rate, p) -> if passes p then Float.max m rate else m) 0.0 r.rungs

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let ms x = 1e3 *. x
let pct s q = Option.value ~default:0.0 (Samples.percentile s q)

let failures r =
  let f = ref [] in
  let add fmt = Printf.ksprintf (fun s -> f := s :: !f) fmt in
  if r.op.errors > 0 then add "%d error replies at the operating point" r.op.errors;
  if r.op.unanswered > 0 then add "%d requests unanswered at the operating point" r.op.unanswered;
  List.iter
    (fun p ->
      if p.errors + p.unanswered > 0 then
        add "%d errors, %d unanswered in a closed-loop segment" p.errors p.unanswered)
    r.segments;
  if r.lost > 0 then add "%d acknowledged admissions lost across SIGKILL" r.lost;
  List.rev !f

(* Seconds from a segment's first reply to its last, and the replies
   after the first. *)
let segment_span p =
  let t = Samples.sorted p.replied in
  let n = Array.length t in
  if n < 2 then (0.0, 0) else (t.(n - 1) -. t.(0), n - 1)

(* [latency_ms] is the mean acknowledgment in the closed loop: parse,
   WAL append, fsync and ack, and for the submissions that fill a batch,
   the inline flush.  The median is the fast path alone, one fsync and a
   few system calls, well under a millisecond; it moved by 15 % or more
   with the host's disk and scheduler from run to run and shows nothing
   of the flush.  [latency_ms] and [throughput_per_s] pool every segment:
   a segment holds 7 to 9 of the flushes that set both, so its own mean
   moved by a CV of 19 % with how many fell in it, where the whole loop's
   count of flushes moves by one or two in a hundred.  All three times are
   read at the reference speed ([Calibration]). *)
let end_to_end r =
  let f = Calibration.factor r.calibration in
  let sum g = List.fold_left (fun s p -> s +. g p) 0.0 r.segments in
  let count g = List.fold_left (fun n p -> n + Samples.count (g p)) 0 r.segments in
  let acks = count (fun p -> p.ack) in
  ( [
      ("setup_s", f *. Samples.median_list r.setups);
      ("latency_ms", f *. ms (sum (fun p -> Samples.sum p.ack)) /. float_of_int (max 1 acks));
      ( "throughput_per_s",
        sum (fun p -> float_of_int (snd (segment_span p))) /. (f *. sum (fun p -> fst (segment_span p)))
      );
      ("peak_rss_mb", r.rss_mb);
    ],
    [ ("requests", r.op.sent); ("acks", Samples.count r.op.ack);
      ("status_reads", Samples.count r.op.status); ("setup_probes", List.length r.setups);
      ("segments", List.length r.segments); ("loop_acks", acks);
      ("loop_replies", count (fun p -> p.replied));
      ("kernel_samples", Calibration.samples r.calibration); ("rungs", List.length r.rungs) ] )

let per_layer r ~base =
  let minor, major, collections = r.registry.gc in
  let fi = float_of_int in
  let hist name = List.assoc_opt name r.registry.hists in
  let counter name = Option.value ~default:0 (List.assoc_opt name r.registry.counters) in
  let h_p name q =
    match hist name with
    | Some (n, _, p50, p99) when Samples.enough_beyond n q -> if q = 0.5 then p50 else p99
    | _ -> 0.0
  in
  let h_sum name = match hist name with Some (_, s, _, _) -> s | None -> 0.0 in
  let admits = fi (counter "server.admit") in
  let per a b = if b > 0.0 then a /. b else 0.0 in
  let ops = fi r.op.sent in
  [
    ("serve.max_rate_per_s", max_rate base);
    ("serve.ack_p50_ms", ms (pct r.op.ack 0.5));
    ("serve.ack_p99_ms", ms (pct r.op.ack 0.99));
    ("serve.recover_s", r.recover_s);
    ("server.ack_p50_ms", ms (h_p "server.ack_latency_s" 0.5));
    ("server.ack_p99_ms", ms (h_p "server.ack_latency_s" 0.99));
    ("server.transport_p50_ms", ms (pct r.op.ack 0.5 -. h_p "server.ack_latency_s" 0.5));
    ("server.sched_share", per (h_sum "hire.round_s") (Spans.total "bench.drive"));
    ("journal.fsync_p50_ms", ms (h_p "journal.fsync_s" 0.5));
    ("journal.fsync_p99_ms", ms (h_p "journal.fsync_s" 0.99));
    ("journal.commits_per_admit", per (fi (counter "journal.commits")) admits);
    ("journal.bytes_per_admit", per (fi (counter "journal.bytes")) admits);
    ("journal.recover_us_per_record", 1e6 *. per r.recover_s (fi r.replayed));
    ("runtime.minor_words_per_op", per minor ops);
    ("runtime.major_words_per_op", per major ops);
    ("runtime.major_collections_per_kop", 1e3 *. per (fi collections) ops);
    ("obs.overhead_ratio", per (pct r.op.ack 0.5) (pct base.op.ack 0.5));
    ("bench.unattributed_ratio", Spans.unattributed_ratio ());
    ("bench.gen_late_p99_ms", ms (pct r.op.late 0.99));
  ]
