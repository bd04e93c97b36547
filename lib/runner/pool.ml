module Clock = Prelude.Clock

type reason =
  | Timed_out of float
  | Crashed of string
  | Child_error of string

let reason_to_string = function
  | Timed_out budget -> Printf.sprintf "timed out after %.1fs" budget
  | Crashed msg -> "crashed: " ^ msg
  | Child_error msg -> "error: " ^ msg

type 'b cell = { result : ('b, reason) result; attempts : int; wall_s : float }

(* ------------------------------------------------------------------ *)
(* Child protocol                                                     *)
(* ------------------------------------------------------------------ *)

(* The child writes exactly one marshalled [('b, string) result] to its
   pipe and [_exit]s (bypassing at_exit so inherited buffered channels
   are not flushed twice).  The parent reads until EOF, reaps the child,
   and only trusts the payload when it is complete and consistent with
   the exit status. *)

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

type running = {
  pid : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  idx : int;
  attempt : int;
  started : float;
  deadline : float option;
}

let spawn ~f ~timeout item idx attempt =
  (* Anything buffered on inherited channels would be flushed by both
     processes; empty the buffers before forking. *)
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:false () in
  let fork () =
    (* A failed fork (EAGAIN under process pressure) must not leak the
       pipe: close both ends before re-raising. *)
    try Unix.fork ()
    with e ->
      Unix.close r;
      Unix.close w;
      raise e
  in
  match fork () with
  | 0 ->
      Unix.close r;
      let result = (try Ok (f item) with e -> Error (Printexc.to_string e)) in
      let code = match result with Ok _ -> 0 | Error _ -> 1 in
      (try
         let oc = Unix.out_channel_of_descr w in
         Marshal.to_channel oc (result : (_, string) result) [];
         flush oc
       with _ -> ());
      Unix._exit code
  | pid ->
      Unix.close w;
      let now = Clock.now () in
      {
        pid;
        fd = r;
        buf = Buffer.create 4096;
        idx;
        attempt;
        started = now;
        deadline = Option.map (fun t -> now +. t) timeout;
      }

let decode_payload (r : running) status : ('b, reason) result =
  let payload () : ('b, string) result option =
    try Some (Marshal.from_string (Buffer.contents r.buf) 0) with _ -> None
  in
  match status with
  | Unix.WEXITED 0 -> (
      match payload () with
      | Some (Ok v) -> Ok v
      | Some (Error msg) -> Error (Child_error msg)
      | None -> Error (Crashed "exit 0 with truncated result"))
  | Unix.WEXITED 1 -> (
      match payload () with
      | Some (Error msg) -> Error (Child_error msg)
      | Some (Ok _) | None -> Error (Crashed "exit 1"))
  | Unix.WEXITED code -> Error (Crashed (Printf.sprintf "exit %d" code))
  | Unix.WSIGNALED sg -> Error (Crashed (Printf.sprintf "killed by signal %d" sg))
  | Unix.WSTOPPED sg -> Error (Crashed (Printf.sprintf "stopped by signal %d" sg))

(* ------------------------------------------------------------------ *)
(* Parent scheduling loop                                             *)
(* ------------------------------------------------------------------ *)

let map_forked ~jobs ~timeout ~retries ~label ~log ~f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let results : 'b cell option array = Array.make n None in
  let max_attempts = 1 + max 0 retries in
  let pending = Queue.create () in
  Array.iteri (fun i _ -> Queue.add (i, 1) pending) items;
  let running = ref [] in
  let done_count = ref 0 in
  let settle (r : running) result wall_s =
    let name = label r.idx items.(r.idx) in
    match result with
    | Ok _ ->
        incr done_count;
        results.(r.idx) <- Some { result; attempts = r.attempt; wall_s };
        log
          (Printf.sprintf "[runner] (%d/%d) ok   %s  %.1fs%s" !done_count n name wall_s
             (if r.attempt > 1 then Printf.sprintf " (attempt %d)" r.attempt else ""))
    | Error reason ->
        if r.attempt < max_attempts then begin
          log
            (Printf.sprintf "[runner] retry %s after attempt %d/%d: %s" name r.attempt
               max_attempts (reason_to_string reason));
          Queue.add (r.idx, r.attempt + 1) pending
        end
        else begin
          incr done_count;
          results.(r.idx) <- Some { result; attempts = r.attempt; wall_s };
          log
            (Printf.sprintf "[runner] (%d/%d) FAIL %s after %d attempt(s): %s" !done_count
               n name r.attempt (reason_to_string reason))
        end
  in
  let rec read_retry fd bytes =
    try Unix.read fd bytes 0 (Bytes.length bytes)
    with Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd bytes
  in
  let chunk = Bytes.create 65536 in
  (* If the parent loop dies (out of memory, a signal-raised exception,
     a bug), the still-running children and their pipe fds must not
     outlive it as zombies/leaks. *)
  let reap_survivors () =
    List.iter
      (fun r ->
        (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (waitpid_retry r.pid) with Unix.Unix_error _ -> ());
        try Unix.close r.fd with Unix.Unix_error _ -> ())
      !running;
    running := []
  in
  Fun.protect ~finally:reap_survivors @@ fun () ->
  while (not (Queue.is_empty pending)) || !running <> [] do
    while (not (Queue.is_empty pending)) && List.length !running < jobs do
      let idx, attempt = Queue.pop pending in
      running := spawn ~f ~timeout items.(idx) idx attempt :: !running
    done;
    let now = Clock.now () in
    let select_timeout =
      List.fold_left
        (fun acc r ->
          match r.deadline with
          | Some d -> Float.min acc (Float.max 0.0 (d -. now))
          | None -> acc)
        infinity !running
    in
    let fds = List.map (fun r -> r.fd) !running in
    let readable, _, _ =
      try Unix.select fds [] [] (if select_timeout = infinity then -1.0 else select_timeout)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let r = List.find (fun r -> r.fd = fd) !running in
        let k = read_retry fd chunk in
        if k > 0 then Buffer.add_subbytes r.buf chunk 0 k
        else begin
          (* EOF: the child has closed its end and is exiting. *)
          running := List.filter (fun x -> x.pid <> r.pid) !running;
          Unix.close fd;
          let status = waitpid_retry r.pid in
          settle r (decode_payload r status) (Clock.now () -. r.started)
        end)
      readable;
    let now = Clock.now () in
    let expired, alive =
      List.partition
        (fun r -> match r.deadline with Some d -> now >= d | None -> false)
        !running
    in
    running := alive;
    List.iter
      (fun r ->
        (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_retry r.pid);
        Unix.close r.fd;
        settle r (Error (Timed_out (Option.get r.deadline -. r.started))) (now -. r.started))
      expired
  done;
  Array.to_list (Array.map Option.get results)

(* In-process fallback: same retry semantics, no isolation and therefore
   no enforceable timeout.  Used when the caller needs child-side
   instrumentation (tracing, registry counters) to land in its own
   process, and as the no-fork escape hatch. *)
let map_inline ~retries ~label ~log ~f items =
  let n = List.length items in
  let max_attempts = 1 + max 0 retries in
  List.mapi
    (fun i item ->
      let name = label i item in
      let rec attempt k =
        let t0 = Clock.now () in
        match f item with
        | v ->
            let wall_s = Clock.now () -. t0 in
            log (Printf.sprintf "[runner] (%d/%d) ok   %s  %.1fs" (i + 1) n name wall_s);
            { result = Ok v; attempts = k; wall_s }
        | exception e ->
            let wall_s = Clock.now () -. t0 in
            let msg = Printexc.to_string e in
            if k < max_attempts then begin
              log
                (Printf.sprintf "[runner] retry %s after attempt %d/%d: error: %s" name k
                   max_attempts msg);
              attempt (k + 1)
            end
            else begin
              log
                (Printf.sprintf "[runner] (%d/%d) FAIL %s after %d attempt(s): error: %s"
                   (i + 1) n name k msg);
              { result = Error (Child_error msg); attempts = k; wall_s }
            end
      in
      attempt 1)
    items

(* ------------------------------------------------------------------ *)
(* Domain-based pool                                                   *)
(* ------------------------------------------------------------------ *)

(* One OCaml 5 domain per worker, pulling cell indices off a shared
   atomic counter until it runs dry.  Cells share the process and the
   runtime — no fork, no marshalling, results stay on the major heap —
   which is the cheap mode for many small cells on a multicore host.
   The flip side: a cell cannot be SIGKILLed, so per-attempt timeouts
   are not enforceable (ignored, as in [map_inline]), a diverging cell
   hangs the pool, and [f] must not touch process-global mutable state
   (the obs registry and the failpoint registry are global: run
   domain-mode sweeps with obs off and HIRE_FAILPOINTS unset —
   docs/RUNNER.md).

   Each result slot is written by exactly one domain (the one that
   pulled its index) and read by the coordinator only after joining
   every worker, so the slot array needs no lock; the log callback is
   shared and serialized by a mutex. *)
let map_domains ~jobs ~retries ~label ~log ~f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let results : 'b cell option array = Array.make n None in
  let max_attempts = 1 + max 0 retries in
  let next = Atomic.make 0 in
  let done_count = Atomic.make 0 in
  let log_mutex = Mutex.create () in
  let log line =
    Mutex.lock log_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock log_mutex) (fun () -> log line)
  in
  let worker () =
    let continue_ = ref true in
    while !continue_ do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then continue_ := false
      else begin
        let item = items.(i) in
        let name = label i item in
        let rec attempt k =
          let t0 = Clock.now () in
          match f item with
          | v ->
              let wall_s = Clock.now () -. t0 in
              let d = 1 + Atomic.fetch_and_add done_count 1 in
              results.(i) <- Some { result = Ok v; attempts = k; wall_s };
              log
                (Printf.sprintf "[runner] (%d/%d) ok   %s  %.1fs%s" d n name wall_s
                   (if k > 1 then Printf.sprintf " (attempt %d)" k else ""))
          | exception e ->
              let msg = Printexc.to_string e in
              if k < max_attempts then begin
                log
                  (Printf.sprintf "[runner] retry %s after attempt %d/%d: error: %s" name k
                     max_attempts msg);
                attempt (k + 1)
              end
              else begin
                let wall_s = Clock.now () -. t0 in
                let d = 1 + Atomic.fetch_and_add done_count 1 in
                results.(i) <- Some { result = Error (Child_error msg); attempts = k; wall_s };
                log
                  (Printf.sprintf "[runner] (%d/%d) FAIL %s after %d attempt(s): error: %s" d
                     n name k msg)
              end
        in
        attempt 1
      end
    done
  in
  let workers = max 1 (min jobs n) in
  let domains = Array.init workers (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  Array.to_list (Array.map Option.get results)

type mode = Fork | Domains | Inline

let map ?(jobs = 1) ?timeout ?(retries = 1) ?(isolate = true) ?mode ?label ?(log = ignore)
    ~f items =
  let jobs = max 1 jobs in
  let label =
    match label with
    | Some l -> fun _ item -> l item
    | None -> fun i _ -> Printf.sprintf "cell %d" i
  in
  let mode = match mode with Some m -> m | None -> if isolate then Fork else Inline in
  match mode with
  | Fork -> map_forked ~jobs ~timeout ~retries ~label ~log ~f items
  | Domains -> map_domains ~jobs ~retries ~label ~log ~f items
  | Inline -> map_inline ~retries ~label ~log ~f items
