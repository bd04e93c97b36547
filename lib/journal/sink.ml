module Clock = Prelude.Clock

exception Crashed of int

let magic = "HIREWAL1"
let version = 1

type t = {
  fd : Unix.file_descr;
  path : string;
  (* Framed records accumulate here and stay buffered until a sync
     {e fully succeeds} — write + fsync.  On any I/O failure (real or a
     {!Failpt} injection) the file is truncated back to [synced_end]
     and the frames are kept, so a retry rewrites them in order and the
     healed file is byte-identical to a failure-free run.  An injected
     crash (the [journal.crash] failpoint) flushes the whole frames first so the tear lands
     exactly where a real kill would leave it. *)
  buf : Buffer.t;
  (* Group-commit window: a {!commit} inside the window defers the
     fsync to a later commit (or {!barrier}/{!close}) so one device
     sync covers every round that landed in the window.  [0.0] fsyncs
     at every commit. *)
  fsync_interval_s : float;
  mutable last_sync : float;
  mutable deferred : bool;  (* committed records awaiting their fsync *)
  mutable next_seq : int;
  (* Bytes known durable, always a frame boundary: everything at or
     past this offset is still in [buf] and is rewritten on retry. *)
  mutable synced_end : int;
  mutable closed : bool;
}

let write_all fd s =
  let len = String.length s in
  let rec go pos =
    if pos < len then go (pos + Unix.write_substring fd s pos (len - pos))
  in
  go 0

let preamble header =
  let buf = Buffer.create (String.length header + 32) in
  Buffer.add_string buf magic;
  Frame.put_u32 buf version;
  Buffer.add_string buf (Frame.encode_payload header);
  Buffer.contents buf

let create ?(fsync_interval_s = 0.0) ~path ~header () =
  if Sys.file_exists path then
    Error.raise_ (Error.State (Printf.sprintf "%s already exists (use recovery)" path));
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 in
  let pre = preamble header in
  write_all fd pre;
  { fd; path; buf = Buffer.create 8192; fsync_interval_s;
    last_sync = Clock.now (); deferred = false; next_seq = 0;
    synced_end = String.length pre; closed = false }

(* Reopen after recovery: [valid_end] is the end of the last whole
   record {!Source} scanned; anything past it (the torn tail) is cut
   before appends resume. *)
let open_append ?(fsync_interval_s = 0.0) ~path ~valid_end ~next_seq () =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd valid_end;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  { fd; path; buf = Buffer.create 8192; fsync_interval_s;
    last_sync = Clock.now (); deferred = false; next_seq;
    synced_end = valid_end; closed = false }

let next_seq t = t.next_seq

(* A failed write or fsync leaves the on-disk suffix unknown: fall all
   the way back to the last durable frame boundary and keep the frames
   buffered for the retry.  After this, the file never holds a frame
   the sink has acknowledged losing — an ack can only ever follow a
   sync that returned. *)
let io_fail t ~op error =
  (try Unix.ftruncate t.fd t.synced_end with Unix.Unix_error _ -> ());
  (try ignore (Unix.lseek t.fd 0 Unix.SEEK_END) with Unix.Unix_error _ -> ());
  if Obs.enabled () then Obs.Registry.incr (Obs.Registry.counter "journal.io_errors");
  Error.raise_ (Error.Io { path = t.path; op; error })

let write_frames t data =
  match Failpt.eval "journal.write" with
  | Some (Failpt.Errno e) -> io_fail t ~op:"write" e
  | Some (Failpt.Short k) ->
      (* A short write: [k] bytes land, then the device is full. *)
      (try write_all t.fd (String.sub data 0 (min k (String.length data)))
       with Unix.Unix_error _ -> ());
      io_fail t ~op:"write" Unix.ENOSPC
  | o ->
      (match o with Some (Failpt.Delay s) -> Unix.sleepf s | _ -> ());
      (try write_all t.fd data with Unix.Unix_error (e, _, _) -> io_fail t ~op:"write" e)

let do_fsync t =
  match Failpt.eval "journal.fsync" with
  | Some (Failpt.Errno e) -> io_fail t ~op:"fsync" e
  | Some (Failpt.Short _) -> io_fail t ~op:"fsync" Unix.EIO
  | o ->
      (match o with Some (Failpt.Delay s) -> Unix.sleepf s | _ -> ());
      (try Unix.fsync t.fd with Unix.Unix_error (e, _, _) -> io_fail t ~op:"fsync" e)

let sync t =
  let data = Buffer.contents t.buf in
  if String.length data > 0 then write_frames t data;
  if Obs.enabled () then begin
    let t0 = Clock.now () in
    do_fsync t;
    Obs.Histogram.observe (Obs.Registry.histogram "journal.fsync_s") (Clock.now () -. t0)
  end
  else do_fsync t;
  (* Only now are the buffered frames durable; anything before this
     point keeps them queued for the retry. *)
  t.synced_end <- t.synced_end + String.length data;
  Buffer.clear t.buf;
  t.deferred <- false;
  t.last_sync <- Clock.now ()

let append t body =
  if t.closed then Error.raise_ (Error.State "append to a closed sink");
  let seq = t.next_seq in
  let frame = Frame.encode_record ~seq body in
  (match Failpt.eval "journal.crash" with
  | Some (Failpt.Crash tear) ->
      (* Injected crash: land every whole frame buffered so far (a real
         kill loses nothing that reached the page cache), then leave
         the torn prefix and abandon the process state right here. *)
      (try write_all t.fd (Buffer.contents t.buf) with Unix.Unix_error _ -> ());
      (try write_all t.fd (String.sub frame 0 (min tear (String.length frame)))
       with Unix.Unix_error _ -> ());
      t.closed <- true;
      raise (Crashed seq)
  | _ -> Buffer.add_string t.buf frame);
  t.next_seq <- seq + 1;
  if Obs.enabled () then begin
    Obs.Registry.incr (Obs.Registry.counter "journal.appends");
    Obs.Registry.incr ~by:(String.length frame) (Obs.Registry.counter "journal.bytes")
  end;
  seq

let commit t =
  if t.closed then Error.raise_ (Error.State "commit on a closed sink");
  t.deferred <- true;
  if t.fsync_interval_s <= 0.0 || Clock.now () -. t.last_sync >= t.fsync_interval_s then
    sync t;
  if Obs.enabled () then Obs.Registry.incr (Obs.Registry.counter "journal.commits")

let barrier t =
  if t.closed then Error.raise_ (Error.State "barrier on a closed sink");
  if t.deferred || Buffer.length t.buf > 0 then sync t

let close t =
  if not t.closed then begin
    if t.deferred || Buffer.length t.buf > 0 then sync t;
    t.closed <- true;
    Unix.close t.fd
  end
