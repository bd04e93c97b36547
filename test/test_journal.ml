(* Tests for the journal subsystem (docs/JOURNAL.md): the binary codec,
   WAL framing against adversarial inputs (torn tails, flipped CRC
   bytes, duplicate sequence numbers, empty/garbage files — each fails
   closed with a structured error), checkpoint atomicity, Wal record
   round-trips, simulator snapshot/restore equivalence, and the headline
   crash-recovery property: kill the journaled service at any record
   index, recover, and land byte-for-byte on the uninterrupted run. *)

module Codec = Prelude.Codec
module Enc = Codec.Enc
module Dec = Codec.Dec
module Sink = Journal.Sink
module Source = Journal.Source
module Checkpoint = Journal.Checkpoint
module Error = Journal.Error
module Experiment = Harness.Experiment

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "hire_journal_test_%d_%d" (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let write_raw path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let flip_byte bytes pos =
  let b = Bytes.of_string bytes in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let e = Enc.create () in
  Enc.byte e 0xAB;
  Enc.uint e 0;
  Enc.uint e 300;
  Enc.uint e max_int;
  Enc.int e 0;
  Enc.int e (-1);
  Enc.int e min_int;
  Enc.int e max_int;
  Enc.bool e true;
  Enc.bool e false;
  Enc.f64 e 0.125;
  Enc.f64 e (-0.0);
  Enc.f64 e infinity;
  Enc.string e "";
  Enc.string e "hello\x00world";
  Enc.option e Enc.int None;
  Enc.option e Enc.int (Some 42);
  Enc.list e Enc.string [ "a"; "bb"; "" ];
  Enc.array e Enc.f64 [| 1.5; -2.5 |];
  Enc.float_array e [| 0.0; 3.25; -1.0 |];
  let d = Dec.of_string (Enc.to_string e) in
  Alcotest.(check int) "byte" 0xAB (Dec.byte d);
  Alcotest.(check int) "uint 0" 0 (Dec.uint d);
  Alcotest.(check int) "uint 300" 300 (Dec.uint d);
  Alcotest.(check int) "uint max" max_int (Dec.uint d);
  Alcotest.(check int) "int 0" 0 (Dec.int d);
  Alcotest.(check int) "int -1" (-1) (Dec.int d);
  Alcotest.(check int) "int min" min_int (Dec.int d);
  Alcotest.(check int) "int max" max_int (Dec.int d);
  Alcotest.(check bool) "bool t" true (Dec.bool d);
  Alcotest.(check bool) "bool f" false (Dec.bool d);
  Alcotest.(check (float 0.0)) "f64" 0.125 (Dec.f64 d);
  Alcotest.(check bool) "-0." true (1.0 /. Dec.f64 d = neg_infinity);
  Alcotest.(check (float 0.0)) "inf" infinity (Dec.f64 d);
  Alcotest.(check string) "empty string" "" (Dec.string d);
  Alcotest.(check string) "string" "hello\x00world" (Dec.string d);
  Alcotest.(check (option int)) "none" None (Dec.option d Dec.int);
  Alcotest.(check (option int)) "some" (Some 42) (Dec.option d Dec.int);
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ] (Dec.list d Dec.string);
  Alcotest.(check (array (float 0.0))) "array" [| 1.5; -2.5 |] (Dec.array d Dec.f64);
  Alcotest.(check (array (float 0.0))) "float_array" [| 0.0; 3.25; -1.0 |] (Dec.float_array d);
  Alcotest.(check bool) "at end" true (Dec.at_end d)

let test_codec_fails_closed () =
  let e = Enc.create () in
  Enc.string e "payload";
  let s = Enc.to_string e in
  let truncated = String.sub s 0 (String.length s - 3) in
  Alcotest.(check bool) "truncated raises" true
    (match Dec.string (Dec.of_string truncated) with
    | exception Codec.Error _ -> true
    | _ -> false);
  Alcotest.(check bool) "decode_string is an Error" true
    (Result.is_error (Codec.decode_string truncated (fun d -> Dec.string d)))

(* A length or count that decodes negative is corrupt: the WAL and
   spec-blob decoders fail closed on it with [Codec.Error], not with
   [String.sub]'s [Invalid_argument] or a record that [Wal.encode]
   rejects.  test_prelude's "codec" group checks the [Dec] primitives. *)
let test_codec_negative_length_fails_closed () =
  let all_ones = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  let fails_closed f = match f () with exception Codec.Error _ -> true | _ -> false in
  Alcotest.(check bool) "Wal.decode commit" true
    (fails_closed (fun () -> Sim.Wal.decode ("\x03" ^ all_ones)));
  let version = String.sub (Experiment.spec_to_blob Experiment.default) 0 1 in
  Alcotest.(check bool) "spec blob scheduler name" true
    (fails_closed (fun () -> Experiment.spec_of_blob (version ^ all_ones ^ "hire")))

(* An overlong varint (a zero group after a continuation byte) decodes
   to the same value as the encoder's form, so a record or spec blob
   holding one would not re-encode to its own bytes: both decoders fail
   closed on it instead. *)
let test_codec_overlong_fails_closed () =
  let fails_closed f = match f () with exception Codec.Error _ -> true | _ -> false in
  Alcotest.(check bool) "Wal.decode commit, round 0 in two bytes" true
    (fails_closed (fun () -> Sim.Wal.decode "\x03\x80\x00"));
  let blob = Experiment.spec_to_blob Experiment.default in
  let version = Char.code blob.[0] in
  Alcotest.(check bool) "version is one byte" true (version < 0x80);
  let overlong =
    String.make 1 (Char.chr (0x80 lor version))
    ^ "\x00"
    ^ String.sub blob 1 (String.length blob - 1)
  in
  Alcotest.(check bool) "spec blob, version in two bytes" true
    (fails_closed (fun () -> Experiment.spec_of_blob overlong))

let prop_codec_int_roundtrip =
  QCheck.Test.make ~name:"codec: zigzag int round-trips" ~count:500 QCheck.int (fun i ->
      let e = Enc.create () in
      Enc.int e i;
      let d = Dec.of_string (Enc.to_string e) in
      Dec.int d = i && Dec.at_end d)

(* ------------------------------------------------------------------ *)
(* WAL framing: round-trip and adversarial inputs                      *)
(* ------------------------------------------------------------------ *)

let make_journal dir records =
  let path = Filename.concat dir "wal.bin" in
  let sink = Sink.create ~path ~header:"spec-blob" () in
  List.iter (fun r -> ignore (Sink.append sink r)) records;
  Sink.commit sink;
  Sink.close sink;
  path

let load_exn path =
  match Source.load ~path with
  | Ok l -> l
  | Error e -> Alcotest.failf "unexpected load error: %s" (Error.to_string e)

let test_sink_source_roundtrip () =
  with_dir @@ fun dir ->
  let records = [ "alpha"; ""; "gamma\x00\xff"; String.make 1000 'x' ] in
  let path = make_journal dir records in
  let l = load_exn path in
  Alcotest.(check string) "header" "spec-blob" l.Source.header;
  Alcotest.(check (list string)) "records" records (Array.to_list l.Source.records);
  Alcotest.(check bool) "clean tail" true (l.Source.tail = Source.Clean)

let test_create_refuses_existing () =
  with_dir @@ fun dir ->
  let path = make_journal dir [ "r0" ] in
  Alcotest.(check bool) "second create fails closed" true
    (match Sink.create ~path ~header:"other" () with
    | exception Error.Journal_error (Error.State _) -> true
    | _ -> false)

let test_empty_file_fails_closed () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal.bin" in
  write_raw path "";
  Alcotest.(check bool) "Empty" true
    (match Source.load ~path with Error (Error.Empty _) -> true | _ -> false);
  Alcotest.(check bool) "missing is Missing" true
    (match Source.load ~path:(Filename.concat dir "nope.bin") with
    | Error (Error.Missing _) -> true
    | _ -> false)

let test_bad_magic_fails_closed () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal.bin" in
  write_raw path "NOTAWAL0garbage-bytes-here";
  Alcotest.(check bool) "Bad_magic" true
    (match Source.load ~path with Error (Error.Bad_magic _) -> true | _ -> false)

let test_torn_tail_truncated_mid_record () =
  with_dir @@ fun dir ->
  let path = make_journal dir [ "first"; "second"; "third" ] in
  let whole = Source.read_file path in
  (* Cut into the last frame: an incomplete prefix, the signature of a
     crash mid-append. *)
  write_raw path (String.sub whole 0 (String.length whole - 3));
  match Source.load ~path with
  | Ok l ->
      Alcotest.(check (list string)) "whole records survive" [ "first"; "second" ]
        (Array.to_list l.Source.records);
      Alcotest.(check bool) "tail reported torn" true
        (match l.Source.tail with Source.Torn _ -> true | Source.Clean -> false)
  | Error e -> Alcotest.failf "torn tail must load: %s" (Error.to_string e)

let test_flipped_crc_byte_fails_closed () =
  with_dir @@ fun dir ->
  let path = make_journal dir [ "first"; "second"; "third" ] in
  let whole = Source.read_file path in
  (* Flip one byte inside the *middle* record's frame: a complete frame
     that no longer checksums — corruption, not a crash artefact. *)
  let l = load_exn path in
  ignore l;
  let tail_frame = Journal.Frame.encode_record ~seq:2 "third" in
  let mid_frame = Journal.Frame.encode_record ~seq:1 "second" in
  let mid_off = String.length whole - String.length tail_frame - String.length mid_frame in
  (* +4 lands inside the CRC field of the mid frame. *)
  write_raw path (flip_byte whole (mid_off + 4));
  (match Source.load ~path with
  | Error (Error.Corrupt_record { seq; _ }) -> Alcotest.(check int) "seq named" 1 seq
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "corrupt record must not load");
  (* Flipping a payload byte (not the CRC field) fails the same way. *)
  write_raw path (flip_byte whole (mid_off + 9));
  Alcotest.(check bool) "payload flip also fails closed" true
    (match Source.load ~path with Error (Error.Corrupt_record _) -> true | _ -> false)

let test_duplicate_seq_fails_closed () =
  with_dir @@ fun dir ->
  let path = make_journal dir [ "first"; "second" ] in
  let whole = Source.read_file path in
  (* A well-formed frame re-using sequence 1: replayed/misordered write. *)
  write_raw path (whole ^ Journal.Frame.encode_record ~seq:1 "again");
  (match Source.load ~path with
  | Error (Error.Duplicate_seq { seq; _ }) -> Alcotest.(check int) "seq named" 1 seq
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "duplicate seq must not load");
  (* A gap (skipping ahead) fails closed too. *)
  write_raw path (whole ^ Journal.Frame.encode_record ~seq:7 "gap");
  Alcotest.(check bool) "gapped seq fails closed" true
    (match Source.load ~path with Error _ -> true | Ok _ -> false)

let test_open_append_truncates_tear () =
  with_dir @@ fun dir ->
  let path = make_journal dir [ "first"; "second" ] in
  let whole = Source.read_file path in
  write_raw path (whole ^ "\x0a\x00\x00");
  let l = load_exn path in
  Alcotest.(check bool) "torn before reopen" true (l.Source.tail <> Source.Clean);
  let sink =
    Sink.open_append ~path ~valid_end:l.Source.valid_end
      ~next_seq:(Array.length l.Source.records)
      ()
  in
  ignore (Sink.append sink "third");
  Sink.commit sink;
  Sink.close sink;
  let l = load_exn path in
  Alcotest.(check (list string)) "tear cut, log continued" [ "first"; "second"; "third" ]
    (Array.to_list l.Source.records);
  Alcotest.(check bool) "clean after reopen" true (l.Source.tail = Source.Clean)

let test_chaos_tears_exactly () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "wal.bin" in
  Fun.protect ~finally:Failpt.deactivate @@ fun () ->
  Failpt.load "journal.crash=2*off->crash(3)";
  let sink = Sink.create ~path ~header:"h" () in
  ignore (Sink.append sink "r0");
  ignore (Sink.append sink "r1");
  (match Sink.append sink "r2" with
  | exception Sink.Crashed seq -> Alcotest.(check int) "crashed at armed seq" 2 seq
  | _ -> Alcotest.fail "armed crash did not fire");
  (* The file holds the two whole records plus a 3-byte torn prefix. *)
  let l = load_exn path in
  Alcotest.(check (list string)) "records before the crash" [ "r0"; "r1" ]
    (Array.to_list l.Source.records);
  Alcotest.(check bool) "torn" true (l.Source.tail <> Source.Clean)

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip_and_fallback () =
  with_dir @@ fun dir ->
  Checkpoint.write ~dir ~gen:0 ~upto_seq:10 "blob-0";
  Checkpoint.write ~dir ~gen:1 ~upto_seq:20 "blob-1";
  Checkpoint.write ~dir ~gen:2 ~upto_seq:30 "blob-2";
  (match Checkpoint.latest ~dir with
  | Some { Checkpoint.gen; upto_seq; blob } ->
      Alcotest.(check int) "newest gen" 2 gen;
      Alcotest.(check int) "upto_seq" 30 upto_seq;
      Alcotest.(check string) "blob" "blob-2" blob
  | None -> Alcotest.fail "latest missing");
  Alcotest.(check (list int)) "generations newest first" [ 2; 1; 0 ]
    (Checkpoint.generations ~dir);
  (* Corrupt the newest generation: latest skips it for the previous
     one instead of failing or returning damage. *)
  let p2 = Filename.concat dir "checkpoint-00000002.bin" in
  write_raw p2 (flip_byte (Source.read_file p2) (String.length (Source.read_file p2) - 1));
  (match Checkpoint.latest ~dir with
  | Some { Checkpoint.gen; blob; _ } ->
      Alcotest.(check int) "fell back" 1 gen;
      Alcotest.(check string) "older blob intact" "blob-1" blob
  | None -> Alcotest.fail "fallback missing");
  Checkpoint.prune ~dir ~keep:1;
  Alcotest.(check (list int)) "pruned to newest" [ 2 ] (Checkpoint.generations ~dir)

(* ------------------------------------------------------------------ *)
(* Wal record codec                                                    *)
(* ------------------------------------------------------------------ *)

let test_wal_record_roundtrip () =
  (* A realistic PolyReq payload for the Admit record: produced by the
     actual translation path, so the codec is exercised on the same
     shapes the admission server journals (docs/SERVER.md). *)
  let poly =
    let store = Hire.Comp_store.default () in
    let job =
      {
        Workload.Job.id = 1_000_000_007;
        arrival = 0.0;
        priority = Workload.Job.Batch;
        groups =
          [ { Workload.Job.tg_index = 0; count = 2; cpu = 1.0; mem = 2.0; duration = 10.0 } ];
      }
    in
    let ids = Hire.Transformer.Id_gen.create ~first:1_000_000_448 () in
    Hire.Transformer.transform store ids (Prelude.Rng.create 42)
      ~job_id:1_000_000_007 ~arrival:0.0
      (Hire.Comp_req.of_job job)
  in
  let records =
    [
      Sim.Wal.Submit { time = 1.5; job_id = 7 };
      Sim.Wal.Resubmit { time = 2.5; job_id = 7; tg_ids = [ 3; 4; 5 ] };
      Sim.Wal.Round
        {
          time = 3.0;
          round = 12;
          placements = [ (1, 100); (2, 200) ];
          cancelled = [ 9 ];
          think = 0.0125;
        };
      Sim.Wal.Commit { round = 12 };
      Sim.Wal.Complete { time = 4.0; token = 33; tg_id = 2; machine = 200 };
      Sim.Wal.Node_fail { time = 5.0; node = 17; killed = [ (2, 3); (4, 1) ] };
      Sim.Wal.Requeue { time = 6.0; tg_id = 2; lost = 3; attempt = 1; retry_time = 7.5 };
      Sim.Wal.Fault_cancel { time = 8.0; tg_id = 4; lost = 1 };
      Sim.Wal.Node_recover { time = 9.0; node = 17; downtime_s = 4.0 };
      Sim.Wal.Admit { admit_id = 7; client = "bench-7"; poly };
      Sim.Wal.Admit { admit_id = 8; client = ""; poly };
      Sim.Wal.Inject { time = 2.5; admit_ids = [ 0; 1; 5 ] };
      Sim.Wal.Inject { time = 3.5; admit_ids = [] };
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "is_input_encoded: %s" (Sim.Wal.kind r))
        (match r with Sim.Wal.Admit _ | Sim.Wal.Inject _ -> true | _ -> false)
        (Sim.Wal.is_input_encoded (Sim.Wal.encode r)))
    records;
  List.iter
    (fun r ->
      let b = Sim.Wal.encode r in
      Alcotest.(check bool)
        (Printf.sprintf "round-trips: %s" (Format.asprintf "%a" Sim.Wal.pp r))
        true
        (Sim.Wal.decode b = r))
    records;
  Alcotest.(check bool) "garbage fails closed" true
    (match Sim.Wal.decode "\xfegarbage" with
    | exception Codec.Error _ -> true
    | _ -> false);
  Alcotest.(check bool) "trailing bytes fail closed" true
    (match Sim.Wal.decode (Sim.Wal.encode (Sim.Wal.Commit { round = 1 }) ^ "x") with
    | exception Codec.Error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Trace_io adversarial inputs                                         *)
(* ------------------------------------------------------------------ *)

let test_trace_io_adversarial () =
  let header = "job_id,arrival_s,priority,tg_index,count,cpu,mem,duration_s" in
  let good = header ^ "\n1,0.5,batch,0,2,1.0,2.0,10.0" in
  Alcotest.(check bool) "control row parses" true
    (Result.is_ok (Workload.Trace_io.of_csv good));
  let cases =
    [
      ("empty", "");
      ("header only truncated", String.sub header 0 (String.length header / 2));
      ("row truncated mid-field", header ^ "\n1,0.5,batch,0,2,1.");
      ("row with missing columns", header ^ "\n1,0.5,batch,0");
      ("unparsable number", header ^ "\n1,0.5,batch,0,2,abc,2.0,10.0");
      ("negative count", header ^ "\n1,0.5,batch,0,-2,1.0,2.0,10.0");
      ("unknown priority", header ^ "\n1,0.5,urgent,0,2,1.0,2.0,10.0");
      ( "inconsistent job rows",
        header ^ "\n1,0.5,batch,0,2,1.0,2.0,10.0\n1,0.9,batch,1,2,1.0,2.0,10.0" );
    ]
  in
  List.iter
    (fun (name, text) ->
      Alcotest.(check bool) (name ^ " fails closed") true
        (Result.is_error (Workload.Trace_io.of_csv text)))
    cases

(* ------------------------------------------------------------------ *)
(* Spec blob                                                           *)
(* ------------------------------------------------------------------ *)

let test_spec_blob_roundtrip () =
  let specs =
    [
      Experiment.default;
      {
        Experiment.default with
        scheduler = "coco";
        mu = 0.25;
        setup = Sim.Cluster.Heterogeneous;
        k = 4;
        horizon = 123.5;
        seed = 99;
        inc_capable_fraction = None;
        faults = Some Faults.default_spec;
        incremental = false;
        portfolio = true;
      };
      {
        Experiment.default with
        resilience =
          Some
            (Hire.Hire_scheduler.resilience
               ~budget:(Flow.Budget.make ~max_wall_s:0.5 ~max_steps:1000 ())
               ~guard_every:3 ());
      };
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "round-trips: %s" (Experiment.describe s))
        true
        (Experiment.spec_of_blob (Experiment.spec_to_blob s) = s))
    specs;
  Alcotest.(check bool) "garbage fails closed" true
    (match Experiment.spec_of_blob "\xff\xfe\x00" with
    | exception Codec.Error _ -> true
    | _ -> false);
  Alcotest.(check bool) "trailing bytes fail closed" true
    (match Experiment.spec_of_blob (Experiment.spec_to_blob Experiment.default ^ "z") with
    | exception Codec.Error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore equivalence                                      *)
(* ------------------------------------------------------------------ *)

(* A small journaled cell: k=8 keeps the trace non-trivial at a short
   horizon, faults exercise the kill/requeue records, deterministic
   wall times make replay byte-reproducible. *)
let journal_config = { Sim.Simulator.default_config with deterministic_wall = true }

let journal_spec seed =
  {
    Experiment.default with
    seed;
    horizon = 45.0;
    faults =
      Some
        {
          Faults.plan =
            {
              Faults.Plan.default_config with
              server_mtbf = 40.0;
              switch_mtbf = 40.0;
              server_mttr = 5.0;
              switch_mttr = 5.0;
            };
          policy = Faults.Policy.create ~max_retries:2 ();
        };
  }

let report_row spec (report : Sim.Metrics.report) =
  Sim.Csv_export.row ~faults:true ~resilience:false ~scheduler:spec.Experiment.scheduler
    ~mu:spec.Experiment.mu ~setup:spec.Experiment.setup ~seed:spec.Experiment.seed report

let test_snapshot_restore_equivalence () =
  let spec = journal_spec 3 in
  let sim_a = Experiment.prepare ~config:journal_config spec in
  (* Run A halfway, snapshot, and overlay the blob on a freshly built
     world: both must finish with identical reports, and the restored
     state must re-snapshot to the identical blob. *)
  let steps = ref 0 in
  while Sim.Simulator.step sim_a && !steps < 500 do
    incr steps
  done;
  Alcotest.(check bool) "midpoint reached" true (!steps = 500);
  let blob =
    match Sim.Simulator.snapshot sim_a with
    | Some b -> b
    | None -> Alcotest.fail "hire must be snapshotable"
  in
  let sim_b = Experiment.prepare ~config:journal_config spec in
  Sim.Simulator.restore sim_b blob;
  (match Sim.Simulator.ledger_check sim_b with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "restored ledgers drifted: %s" msg);
  (match Sim.Simulator.snapshot sim_b with
  | Some b -> Alcotest.(check bool) "re-snapshot is byte-identical" true (String.equal b blob)
  | None -> Alcotest.fail "restored sim must stay snapshotable");
  while Sim.Simulator.step sim_a do () done;
  while Sim.Simulator.step sim_b do () done;
  let ra = (Sim.Simulator.finish sim_a).Sim.Simulator.report in
  let rb = (Sim.Simulator.finish sim_b).Sim.Simulator.report in
  Alcotest.(check string) "reports identical" (report_row spec ra) (report_row spec rb)

let test_restore_rejects_garbage () =
  let spec = journal_spec 3 in
  let sim = Experiment.prepare ~config:journal_config spec in
  Alcotest.(check bool) "garbage blob fails closed" true
    (match Sim.Simulator.restore sim "\x00\x01garbage" with
    | exception Codec.Error _ -> true
    | _ -> false)

(* A hand-encoded census blob for task group 7 on a k=4 topology,
   decoded into a fresh census. *)
let decode_census topo pairs =
  let e = Enc.create () in
  Enc.list e
    (fun e (tg_id, pairs) ->
      Enc.int e tg_id;
      Enc.list e
        (fun e (m, c) ->
          Enc.int e m;
          Enc.uint e c)
        pairs)
    [ (7, pairs) ];
  let census = Hire.Locality.Task_census.create topo in
  Hire.Locality.Task_census.decode_state census (Dec.of_string (Enc.to_string e));
  census

let fails_closed f = match f () with exception Codec.Error _ -> true | _ -> false

(* A census blob that names a machine outside the topology fails
   closed, as a restore promises, and not with the topology's
   [Invalid_argument]. *)
let test_census_rejects_bad_machine () =
  let topo = Topology.Fat_tree.create ~k:4 in
  List.iter
    (fun machine ->
      Alcotest.(check bool)
        (Printf.sprintf "machine %d fails closed" machine)
        true
        (fails_closed (fun () -> decode_census topo [ (machine, 1) ])))
    [ Topology.Fat_tree.node_count topo; -1 ]

(* A live census holds no zero count, so a blob with one is corrupt. *)
let test_census_rejects_zero_count () =
  let topo = Topology.Fat_tree.create ~k:4 in
  let server = (Topology.Fat_tree.servers topo).(0) in
  Alcotest.(check bool) "zero count fails closed" true
    (fails_closed (fun () -> decode_census topo [ (server, 2); (server + 1, 0) ]))

(* A count is applied in one step, so a huge one (as a few corrupt
   bytes can encode) costs no more to decode than a small one. *)
let test_census_huge_count () =
  let topo = Topology.Fat_tree.create ~k:4 in
  let server = (Topology.Fat_tree.servers topo).(0) in
  let census = decode_census topo [ (server, 1_000_000_000_000) ] in
  Alcotest.(check int) "total" 1_000_000_000_000
    (Hire.Locality.Task_census.total census ~tg_id:7);
  Alcotest.(check int) "ToR rollup" 1_000_000_000_000
    (Hire.Locality.Task_census.count_under census ~tg_id:7
       ~node:(Topology.Fat_tree.tor_of_server topo server))

(* ------------------------------------------------------------------ *)
(* Service crash recovery                                              *)
(* ------------------------------------------------------------------ *)

let run_uninterrupted spec ~dir ~checkpoint_every =
  let service =
    Sim.Service.start ~dir ~checkpoint_every
      ~header:(Experiment.spec_to_blob spec)
      (Experiment.prepare ~config:journal_config spec)
  in
  (Sim.Service.run service).Sim.Simulator.report

let rebuild header =
  Experiment.prepare ~config:journal_config (Experiment.spec_of_blob header)

(* [tamper ()] runs between the crash and the recovery. *)
let crash_then_recover ?(tamper = ignore) spec ~dir ~checkpoint_every ~crash_at =
  Fun.protect ~finally:Failpt.deactivate @@ fun () ->
  Failpt.load (Printf.sprintf "journal.crash=%d*off->crash(5)" crash_at);
  (match
     Sim.Service.run
       (Sim.Service.start ~dir ~checkpoint_every
          ~header:(Experiment.spec_to_blob spec)
          (Experiment.prepare ~config:journal_config spec))
   with
  | _ -> Alcotest.fail "armed crash did not fire"
  | exception Sink.Crashed _ -> ());
  Failpt.deactivate ();
  tamper ();
  let r = Sim.Service.recover ~dir ~checkpoint_every ~rebuild () in
  (r, (Sim.Service.run r.Sim.Service.service).Sim.Simulator.report)

let wal_bytes dir = Source.read_file (Filename.concat dir "wal.bin")

(* The headline property: crash the journaled service at ANY record
   index, recover, run to completion — the final report row and the
   whole WAL are byte-identical to the uninterrupted run's. *)
let prop_crash_anywhere_recovers =
  QCheck.Test.make ~name:"service: crash at any record index recovers byte-identically"
    ~count:8
    QCheck.(pair (int_range 1 5) (float_range 0.0 1.0))
    (fun (seed, frac) ->
      let spec = journal_spec seed in
      let dir_a = fresh_dir () and dir_b = fresh_dir () in
      Fun.protect
        ~finally:(fun () ->
          rm_rf dir_a;
          rm_rf dir_b)
        (fun () ->
          let report_a = run_uninterrupted spec ~dir:dir_a ~checkpoint_every:7 in
          let l = load_exn (Filename.concat dir_a "wal.bin") in
          let n = Array.length l.Source.records in
          if n < 2 then QCheck.Test.fail_reportf "degenerate run: %d records" n;
          (* Crash on the append of record 1 .. n-1 (0 is inside the
             first event; n-1 the final commit). *)
          let crash_at = 1 + int_of_float (frac *. float_of_int (n - 2)) in
          let recovered, report_b =
            try crash_then_recover spec ~dir:dir_b ~checkpoint_every:7 ~crash_at
            with Error.Journal_error e ->
              QCheck.Test.fail_reportf "seed %d crash@%d/%d: recovery failed: %s" seed
                crash_at n (Error.to_string e)
          in
          if report_row spec report_a <> report_row spec report_b then
            QCheck.Test.fail_reportf "seed %d crash@%d/%d: reports differ\nA: %s\nB: %s"
              seed crash_at n (report_row spec report_a) (report_row spec report_b);
          if not (String.equal (wal_bytes dir_a) (wal_bytes dir_b)) then
            QCheck.Test.fail_reportf
              "seed %d crash@%d/%d (replayed %d): WALs differ" seed crash_at n
              recovered.Sim.Service.replayed;
          true))

let test_recover_from_genesis_without_checkpoints () =
  let spec = journal_spec 2 in
  with_dir @@ fun dir_a ->
  with_dir @@ fun dir_b ->
  let report_a = run_uninterrupted spec ~dir:dir_a ~checkpoint_every:0 in
  let recovered, report_b =
    crash_then_recover spec ~dir:dir_b ~checkpoint_every:0 ~crash_at:40
  in
  Alcotest.(check (option int)) "no checkpoint used" None
    recovered.Sim.Service.from_checkpoint;
  Alcotest.(check int) "whole prefix replayed" 40 recovered.Sim.Service.replayed;
  Alcotest.(check string) "reports identical" (report_row spec report_a)
    (report_row spec report_b);
  Alcotest.(check bool) "WALs identical" true
    (String.equal (wal_bytes dir_a) (wal_bytes dir_b))

(* The service keeps two checkpoint generations however long it runs,
   and the older one is a real fallback: with the newest corrupted,
   recovery overlays the older and still finishes byte-identical. *)
let test_recover_keeps_two_generations () =
  let spec = journal_spec 3 in
  with_dir @@ fun dir_a ->
  with_dir @@ fun dir_b ->
  let report_a = run_uninterrupted spec ~dir:dir_a ~checkpoint_every:1 in
  Alcotest.(check int) "two generations after a whole run" 2
    (List.length (Checkpoint.generations ~dir:dir_a));
  let n = Array.length (load_exn (Filename.concat dir_a "wal.bin")).Source.records in
  let older = ref None in
  let tamper () =
    match Checkpoint.generations ~dir:dir_b with
    | [ newest; _ ] ->
        let p = Filename.concat dir_b (Printf.sprintf "checkpoint-%08d.bin" newest) in
        let bytes = Source.read_file p in
        write_raw p (flip_byte bytes (String.length bytes - 1));
        older := Option.map (fun c -> c.Checkpoint.upto_seq) (Checkpoint.latest ~dir:dir_b)
    | gens -> Alcotest.failf "%d generations at the crash, expected 2" (List.length gens)
  in
  let recovered, report_b =
    crash_then_recover ~tamper spec ~dir:dir_b ~checkpoint_every:1 ~crash_at:(n - 2)
  in
  Alcotest.(check bool) "an older generation is left" true (!older <> None);
  Alcotest.(check (option int)) "recovered from the older generation" !older
    recovered.Sim.Service.from_checkpoint;
  Alcotest.(check string) "reports identical" (report_row spec report_a)
    (report_row spec report_b);
  Alcotest.(check int) "still two generations" 2
    (List.length (Checkpoint.generations ~dir:dir_b))

let test_recover_refuses_lost_committed_data () =
  let spec = journal_spec 1 in
  with_dir @@ fun dir ->
  let (_ : Sim.Metrics.report) = run_uninterrupted spec ~dir ~checkpoint_every:0 in
  (* A checkpoint claiming to subsume more records than the WAL holds
     means committed data vanished: recovery must fail closed, not
     silently continue from thin air. *)
  Checkpoint.write ~dir ~gen:0 ~upto_seq:1_000_000 "bogus";
  Alcotest.(check bool) "State error" true
    (match Sim.Service.recover ~dir ~checkpoint_every:0 ~rebuild () with
    | exception Error.Journal_error (Error.State _) -> true
    | _ -> false)

let test_torn_tail_counter_increments () =
  let spec = journal_spec 4 in
  with_dir @@ fun dir ->
  let was_enabled = Obs.enabled () in
  Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
  Obs.set_enabled true;
  let count name = Option.value (List.assoc_opt name (Obs.Registry.counters ())) ~default:0 in
  let before = count "journal.torn_tail" and fired = count "failpt.fired.journal.crash" in
  let _, _ = crash_then_recover spec ~dir ~checkpoint_every:5 ~crash_at:60 in
  Alcotest.(check bool) "journal.torn_tail incremented" true (count "journal.torn_tail" > before);
  Alcotest.(check int) "the crash is counted under its site" (fired + 1)
    (count "failpt.fired.journal.crash")

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "journal"
    [
      ( "codec",
        [
          quick "round-trip" test_codec_roundtrip;
          quick "fails closed" test_codec_fails_closed;
          quick "negative length fails closed" test_codec_negative_length_fails_closed;
          quick "overlong varint fails closed" test_codec_overlong_fails_closed;
        ]
        @ qt [ prop_codec_int_roundtrip ] );
      ( "framing",
        [
          quick "sink/source round-trip" test_sink_source_roundtrip;
          quick "create refuses existing journal" test_create_refuses_existing;
          quick "empty file fails closed" test_empty_file_fails_closed;
          quick "bad magic fails closed" test_bad_magic_fails_closed;
          quick "truncation mid-record is a torn tail" test_torn_tail_truncated_mid_record;
          quick "flipped CRC byte fails closed" test_flipped_crc_byte_fails_closed;
          quick "duplicate seq fails closed" test_duplicate_seq_fails_closed;
          quick "open_append truncates the tear" test_open_append_truncates_tear;
          quick "chaos tears exactly at the armed seq" test_chaos_tears_exactly;
        ] );
      ( "checkpoint",
        [ quick "round-trip, fallback, prune" test_checkpoint_roundtrip_and_fallback ] );
      ("wal", [ quick "record round-trip" test_wal_record_roundtrip ]);
      ("trace-io", [ quick "adversarial inputs fail closed" test_trace_io_adversarial ]);
      ("spec-blob", [ quick "round-trip" test_spec_blob_roundtrip ]);
      ( "snapshot",
        [
          quick "restore equivalence" test_snapshot_restore_equivalence;
          quick "restore rejects garbage" test_restore_rejects_garbage;
          quick "census rejects an out-of-range machine" test_census_rejects_bad_machine;
          quick "census rejects a zero count" test_census_rejects_zero_count;
          quick "census decodes a huge count at once" test_census_huge_count;
        ] );
      ( "recovery",
        [
          quick "genesis replay without checkpoints"
            test_recover_from_genesis_without_checkpoints;
          quick "refuses lost committed data" test_recover_refuses_lost_committed_data;
          quick "two checkpoint generations, the older a fallback"
            test_recover_keeps_two_generations;
          quick "torn tail increments the obs counter" test_torn_tail_counter_increments;
        ]
        @ qt [ prop_crash_anywhere_recovers ] );
    ]
