(* Single-threaded select loop for the admission API (docs/SERVER.md).
   One poll round = read every ready connection, parse complete lines,
   apply them to the engine, run one durability barrier over the
   round's admissions, then queue the acknowledgments.  The serial loop
   is a feature: the engine, the journal sink, and the simulator are
   all single-owner, so no admission interleaves with a scheduling
   step.

   Hostile transports are contained per connection (docs/FAILPOINTS.md):
   a connection gets [io_timeout] wall seconds to finish a started line
   (slow-loris) and to make progress on a queued reply (stalled write);
   past either deadline it is closed and counted, the server unharmed.
   A failed barrier flips the engine into degraded mode — the round's
   would-be acks are rewritten into retriable "degraded" errors, ticks
   probe the disk instead of flushing, and entry/exit are logged one
   line each. *)

type listen = Unix_sock of string | Tcp of string * int

type conn = {
  fd : Unix.file_descr;
  acc : Buffer.t;  (* bytes read, up to the last unterminated line *)
  mutable out : string;  (* queued response bytes not yet written *)
  mutable out_off : int;
  mutable close_after_write : bool;
  (* Containment deadlines, 0.0 = unarmed: [read_deadline] arms when a
     line is left unterminated (a well-behaved client sends whole
     lines; a slow-loris dribbles), [write_deadline] arms when a reply
     is queued and re-arms on every written byte (a stalled reader
     stops making progress). *)
  mutable read_deadline : float;
  mutable write_deadline : float;
}

(* A response owed to a connection once the round's barrier has run.
   [latency_from] carries the receipt timestamp of admissions so the
   ack latency histogram measures receipt → post-fsync. *)
type pending_reply = {
  reply_conn : conn;
  reply_line : string;
  latency_from : float option;
}

let read_chunk = 4096

let close_conn conns c =
  (try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ());
  conns := List.filter (fun c' -> c'.fd != c.fd) !conns

let queue_reply c line =
  c.out <- c.out ^ line ^ "\n"

let count name =
  if Obs.enabled () then Obs.Registry.incr (Obs.Registry.counter name)

(* Apply one parsed request; returns the reply line, whether it was a
   fresh admission (needs the barrier before acking), and whether the
   server should shut down after this round. *)
let apply engine (req : Protocol.request) =
  match req with
  | Protocol.Submit js -> (
      match Admission.submit engine js with
      | Admission.Admitted { admit_id; duplicate } ->
          ( Protocol.ok
              [
                ("id", Json.Num (float_of_int admit_id));
                ("duplicate", Json.Bool duplicate);
              ],
            (not duplicate),
            false )
      | Admission.Rejected "degraded" -> (Protocol.err_degraded, false, false)
      | Admission.Rejected reason ->
          (Protocol.err ("rejected: " ^ reason), false, false))
  | Protocol.Status id -> (
      match Admission.status engine id with
      | None -> (Protocol.err "unknown admission id", false, false)
      | Some s ->
          ( Protocol.ok
              [
                ("phase", Json.Str s.Admission.phase);
                ( "injected_at",
                  match s.Admission.injected_at with
                  | None -> Json.Null
                  | Some f -> Json.Num f );
                ("placements", Json.Num (float_of_int s.Admission.placements));
                ("completions", Json.Num (float_of_int s.Admission.completions));
              ],
            false,
            false ))
  | Protocol.Stats ->
      let s = Admission.stats engine in
      ( Protocol.ok
          [
            ("admitted", Json.Num (float_of_int s.Admission.admitted));
            ("rejected", Json.Num (float_of_int s.Admission.rejected));
            ("pending", Json.Num (float_of_int s.Admission.pending_now));
            ("injected", Json.Num (float_of_int s.Admission.injected));
            ("batches", Json.Num (float_of_int s.Admission.batches));
            ("wal_records", Json.Num (float_of_int s.Admission.wal_records));
            ("sim_now", Json.Num s.Admission.sim_now);
            ("degraded", Json.Bool s.Admission.degraded_now);
            ( "degraded_rejects",
              Json.Num (float_of_int s.Admission.degraded_rejects) );
            ("io_errors", Json.Num (float_of_int s.Admission.io_errors));
          ],
        false,
        false )
  | Protocol.Drain ->
      let n = Admission.flush engine in
      (Protocol.ok [ ("injected", Json.Num (float_of_int n)) ], false, false)
  | Protocol.Shutdown -> (Protocol.ok [ ("shutdown", Json.Bool true) ], false, true)

(* Split complete lines off a connection's accumulator.  Returns the
   lines in arrival order; enforces the line-length bound on both the
   complete lines and the unterminated remainder. *)
let take_lines c =
  let data = Buffer.contents c.acc in
  let rec split start acc =
    match String.index_from_opt data start '\n' with
    | Some i ->
        let line = String.sub data start (i - start) in
        split (i + 1) (line :: acc)
    | None ->
        Buffer.clear c.acc;
        Buffer.add_substring c.acc data start (String.length data - start);
        List.rev acc
  in
  split 0 []

let listening_socket listen =
  match listen with
  | Unix_sock path ->
      (* replace a stale socket file from a crashed predecessor *)
      (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (addr, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
      Unix.listen fd 64;
      fd

let serve ~engine ~listen ~tick_interval ?(max_conns = 64) ?(io_timeout = 30.0) () =
  (* a peer closing mid-write must not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let lfd = listening_socket listen in
  let conns = ref [] in
  let shutdown = ref false in
  let next_tick = ref (Prelude.Clock.now () +. tick_interval) in
  let ack_hist =
    if Obs.enabled () then Some (Obs.Registry.histogram "server.ack_latency_s")
    else None
  in
  (* Degraded-mode transitions print one greppable line each (the CI
     torture leg asserts both); [was_degraded] tracks edges. *)
  let was_degraded = ref false in
  let check_health () =
    let d = Admission.degraded engine in
    if d && not !was_degraded then
      Printf.printf "degraded: shedding submissions after storage failure (%s)\n%!"
        (Admission.last_error engine)
    else if (not d) && !was_degraded then
      Printf.printf "healthy: storage writes succeed again, admissions resume\n%!";
    was_degraded := d
  in
  let process_round ready_conns =
    (* 1. read everything that is ready *)
    let chunk = Bytes.create read_chunk in
    List.iter
      (fun c ->
        match
          (match Failpt.eval "net.read" with
          | Some (Failpt.Errno e) -> raise (Unix.Unix_error (e, "read", ""))
          | _ -> ());
          Unix.read c.fd chunk 0 read_chunk
        with
        | 0 -> close_conn conns c
        | n ->
            Buffer.add_subbytes c.acc chunk 0 n;
            if
              Buffer.length c.acc > Protocol.max_line_bytes
              && not (String.contains (Buffer.contents c.acc) '\n')
            then begin
              (* unbounded line: structured error, then hang up *)
              queue_reply c
                (Protocol.err
                   (Printf.sprintf "line exceeds %d bytes" Protocol.max_line_bytes));
              c.close_after_write <- true;
              Buffer.clear c.acc
            end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (_, _, _) -> close_conn conns c)
      ready_conns;
    (* 2. parse + apply complete lines, deferring replies *)
    let replies = ref [] in
    let admissions = ref 0 in
    List.iter
      (fun c ->
        if not c.close_after_write then begin
          List.iter
            (fun line ->
              if String.trim line = "" then ()
              else begin
                let received = Prelude.Clock.now () in
                match Protocol.parse_request line with
                | Error msg ->
                    replies :=
                      { reply_conn = c; reply_line = Protocol.err msg;
                        latency_from = None }
                      :: !replies
                | Ok req ->
                    let reply_line, admitted, stop = apply engine req in
                    if admitted then incr admissions;
                    if stop then shutdown := true;
                    replies :=
                      { reply_conn = c; reply_line;
                        latency_from = (if admitted then Some received else None) }
                      :: !replies
              end)
            (take_lines c);
          (* a line left unterminated starts the slow-loris clock; a
             whole-line client disarms it *)
          if Buffer.length c.acc > 0 then begin
            if c.read_deadline = 0.0 then
              c.read_deadline <- Prelude.Clock.now () +. io_timeout
          end
          else c.read_deadline <- 0.0
        end)
      !conns;
    (* 3. WAL-before-ack: one barrier covers the whole round.  If the
       fsync fails, nothing submitted this round is durable — every
       admission reply is rewritten into the retriable degraded error
       (the engine keeps the frames; idempotent retries converge). *)
    let barrier_ok = if !admissions > 0 then Admission.ack_barrier engine else true in
    if not barrier_ok then check_health ();
    let acked = Prelude.Clock.now () in
    List.iter
      (fun r ->
        let line =
          if barrier_ok || r.latency_from = None then r.reply_line
          else Protocol.err_degraded
        in
        (match (r.latency_from, ack_hist) with
        | Some t0, Some h when barrier_ok -> Obs.Histogram.observe h (acked -. t0)
        | _ -> ());
        queue_reply r.reply_conn line)
      (List.rev !replies);
    (* 4. early flush when the batch fills *)
    if (not (Admission.degraded engine)) && Admission.batch_due engine then
      ignore (Admission.flush engine : int)
  in
  let write_ready ready =
    List.iter
      (fun c ->
        let len = String.length c.out - c.out_off in
        if len > 0 then
          match
            match Failpt.eval "net.write" with
            | Some (Failpt.Errno e) -> raise (Unix.Unix_error (e, "write", ""))
            | Some (Failpt.Short k) ->
                (* forced partial write: the resume path must finish the
                   reply on a later round *)
                Unix.write_substring c.fd c.out c.out_off (min (max 1 k) len)
            | _ ->
                Unix.write_substring c.fd c.out c.out_off len
          with
          | n ->
              c.out_off <- c.out_off + n;
              if c.out_off >= String.length c.out then begin
                c.out <- "";
                c.out_off <- 0;
                c.write_deadline <- 0.0;
                if c.close_after_write then close_conn conns c
              end
              else if n > 0 then
                (* progress re-arms the stall clock *)
                c.write_deadline <- Prelude.Clock.now () +. io_timeout
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | exception Unix.Unix_error (_, _, _) -> close_conn conns c)
      ready
  in
  let accept_ready () =
    match
      (match Failpt.eval "net.accept" with
      | Some (Failpt.Errno e) -> raise (Unix.Unix_error (e, "accept", ""))
      | _ -> ());
      Unix.accept lfd
    with
    | fd, _ ->
        if List.length !conns >= max_conns then (try Unix.close fd with _ -> ())
        else begin
          Unix.set_nonblock fd;
          conns :=
            { fd; acc = Buffer.create 256; out = ""; out_off = 0;
              close_after_write = false; read_deadline = 0.0; write_deadline = 0.0 }
            :: !conns
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
        (* ECONNABORTED, EMFILE, injected accept failures: drop this
           attempt, keep serving — the backlog retries on the next
           readiness *)
        count "server.accept_errors"
  in
  (* Close (and count) every connection past a containment deadline. *)
  let enforce_deadlines () =
    let now = Prelude.Clock.now () in
    List.iter
      (fun c ->
        if
          (c.read_deadline > 0.0 && now > c.read_deadline)
          || (c.write_deadline > 0.0 && now > c.write_deadline)
        then begin
          count "server.conn_timeouts";
          close_conn conns c
        end)
      !conns
  in
  let finally () =
    List.iter (fun c -> try Unix.close c.fd with _ -> ()) !conns;
    (try Unix.close lfd with _ -> ());
    match listen with
    | Unix_sock path -> ( try Unix.unlink path with _ -> ())
    | Tcp _ -> ()
  in
  Fun.protect ~finally (fun () ->
      Unix.set_nonblock lfd;
      while (not !shutdown) || List.exists (fun c -> c.out <> "") !conns do
        (* Wake for whichever comes first: the flush tick, the next
           degraded-mode disk probe, or a connection deadline. *)
        let wake =
          List.fold_left
            (fun w c ->
              let w = if c.read_deadline > 0.0 then Float.min w c.read_deadline else w in
              if c.write_deadline > 0.0 then Float.min w c.write_deadline else w)
            (match Admission.probe_at engine with
            | Some p -> Float.min !next_tick p
            | None -> !next_tick)
            !conns
        in
        let timeout = Float.max 0.0 (wake -. Prelude.Clock.now ()) in
        let rd = if !shutdown then [] else lfd :: List.map (fun c -> c.fd) !conns in
        let wr =
          List.filter_map
            (fun c -> if c.out <> "" then Some c.fd else None)
            !conns
        in
        let readable, writable, _ =
          try Unix.select rd wr [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        if List.mem lfd readable then accept_ready ();
        let ready_conns =
          List.filter (fun c -> List.mem c.fd readable) !conns
        in
        if not !shutdown then process_round ready_conns;
        (* arm the write stall clock for replies queued this round *)
        List.iter
          (fun c ->
            if c.out <> "" && c.write_deadline = 0.0 then
              c.write_deadline <- Prelude.Clock.now () +. io_timeout)
          !conns;
        write_ready (List.filter (fun c -> List.mem c.fd writable) !conns);
        enforce_deadlines ();
        if Admission.degraded engine then begin
          ignore (Admission.probe engine : bool);
          check_health ()
        end;
        if Prelude.Clock.now () >= !next_tick then begin
          if (not !shutdown) && not (Admission.degraded engine) then
            ignore (Admission.flush engine : int);
          next_tick := Prelude.Clock.now () +. tick_interval
        end
      done;
      Admission.finish engine)
