module Codec = Prelude.Codec
module Clock = Prelude.Clock

let magic = "HIRECKP1"
let version = 1

type loaded = { gen : int; upto_seq : int; blob : string }

let file_name gen = Printf.sprintf "checkpoint-%08d.bin" gen
let path_of ~dir gen = Filename.concat dir (file_name gen)

let gen_of_name name =
  if
    String.length name = String.length "checkpoint-00000000.bin"
    && String.sub name 0 11 = "checkpoint-"
    && Filename.check_suffix name ".bin"
  then int_of_string_opt (String.sub name 11 8)
  else None

let fsync_dir dir =
  (* Make the rename itself durable; directory fsync is best-effort on
     platforms that reject O_RDONLY directory descriptors. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

(* [fsync:false] (the default) leaves durability to the page cache: a
   checkpoint lost or torn by a crash fails its CRC and {!latest} falls
   back, so only recovery speed is at stake, never correctness.  A
   failed write — real or injected through the [checkpoint.write]
   failpoint — removes the temporary file and raises {!Error.Io}; the
   rename-into-place protocol means no reader ever saw it, so callers
   may simply skip the checkpoint ({!Sim.Service} does). *)
let write ?(fsync = false) ~dir ~gen ~upto_seq blob =
  let t0 = if Obs.enabled () then Clock.now () else 0.0 in
  let e = Codec.Enc.create ~initial:(String.length blob + 32) () in
  Codec.Enc.uint e gen;
  Codec.Enc.uint e upto_seq;
  Codec.Enc.string e blob;
  let buf = Buffer.create (String.length blob + 64) in
  Buffer.add_string buf magic;
  Frame.put_u32 buf version;
  Buffer.add_string buf (Frame.encode_payload (Codec.Enc.to_string e));
  let data = Buffer.contents buf in
  let tmp = Filename.concat dir (Printf.sprintf ".checkpoint-%08d.tmp" gen) in
  let io_fail ~op error =
    (try Sys.remove tmp with Sys_error _ -> ());
    if Obs.enabled () then Obs.Registry.incr (Obs.Registry.counter "journal.io_errors");
    Error.raise_ (Error.Io { path = tmp; op; error })
  in
  (try
     let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         (match Failpt.eval "checkpoint.write" with
         | Some (Failpt.Errno e) -> raise (Unix.Unix_error (e, "write", tmp))
         | Some (Failpt.Short k) ->
             Sink.write_all fd (String.sub data 0 (min k (String.length data)));
             raise (Unix.Unix_error (Unix.ENOSPC, "write", tmp))
         | Some (Failpt.Delay s) -> Unix.sleepf s
         | _ -> ());
         Sink.write_all fd data;
         if fsync then Unix.fsync fd);
     (* rename-into-place: readers only ever see absent or whole files. *)
     Sys.rename tmp (path_of ~dir gen)
   with
  | Unix.Unix_error (e, op, _) -> io_fail ~op e
  | Sys_error _ -> io_fail ~op:"rename" Unix.EIO);
  if fsync then fsync_dir dir;
  if Obs.enabled () then begin
    Obs.Registry.incr (Obs.Registry.counter "journal.checkpoints");
    Obs.Histogram.observe
      (Obs.Registry.histogram "journal.checkpoint_s")
      (Clock.now () -. t0)
  end

let load_file path =
  let s = Source.read_file path in
  let magic_len = String.length magic in
  if String.length s < magic_len + 4 || String.sub s 0 magic_len <> magic then None
  else if Frame.get_u32 s magic_len <> version then None
  else begin
    match Frame.read_payload s ~pos:(magic_len + 4) with
    | `End | `Torn | `Corrupt _ -> None
    | `Payload (payload, _) -> (
        match
          Codec.decode_string payload (fun d ->
              let gen = Codec.Dec.uint d in
              let upto_seq = Codec.Dec.uint d in
              let blob = Codec.Dec.string d in
              { gen; upto_seq; blob })
        with
        | Ok l -> Some l
        | Result.Error _ -> None)
  end

let generations ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map gen_of_name
      |> List.sort (fun a b -> Int.compare b a)

(* Newest checkpoint that loads cleanly; a half-written or corrupt file
   (impossible via the rename protocol, possible via bit rot) is skipped
   in favour of an older generation. *)
let latest ~dir =
  let rec pick = function
    | [] -> None
    | gen :: rest -> (
        match load_file (path_of ~dir gen) with
        | Some l when l.gen = gen -> Some l
        | _ -> pick rest)
  in
  pick (generations ~dir)

let prune ~dir ~keep =
  let gens = generations ~dir in
  List.iteri
    (fun i gen -> if i >= keep then try Sys.remove (path_of ~dir gen) with Sys_error _ -> ())
    gens
