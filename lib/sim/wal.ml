module Enc = Prelude.Codec.Enc
module Dec = Prelude.Codec.Dec

type record =
  | Submit of { time : float; job_id : int }
  | Resubmit of { time : float; job_id : int; tg_ids : int list }
  | Round of {
      time : float;
      round : int;
      placements : (int * int) list;
      cancelled : int list;
      think : float;
    }
  | Commit of { round : int }
  | Complete of { time : float; token : int; tg_id : int; machine : int }
  | Node_fail of { time : float; node : int; killed : (int * int) list }
  | Requeue of { time : float; tg_id : int; lost : int; attempt : int; retry_time : float }
  | Fault_cancel of { time : float; tg_id : int; lost : int }
  | Node_recover of { time : float; node : int; downtime_s : float }
  | Admit of { admit_id : int; client : string; poly : Hire.Poly_req.t }
  | Inject of { time : float; admit_ids : int list }

let admit_tag = 9
let inject_tag = 10

(* Input records carry external submissions into the simulation; replay
   applies them rather than re-deriving them (docs/SERVER.md). *)
let is_input_encoded body =
  String.length body > 0
  &&
  let b = Char.code body.[0] in
  b = admit_tag || b = inject_tag

let enc_pair e (a, b) =
  Enc.int e a;
  Enc.int e b

let dec_pair d =
  let a = Dec.int d in
  let b = Dec.int d in
  (a, b)

let encode r =
  let e = Enc.create () in
  (match r with
  | Submit { time; job_id } ->
      Enc.byte e 0;
      Enc.f64 e time;
      Enc.int e job_id
  | Resubmit { time; job_id; tg_ids } ->
      Enc.byte e 1;
      Enc.f64 e time;
      Enc.int e job_id;
      Enc.list e Enc.int tg_ids
  | Round { time; round; placements; cancelled; think } ->
      Enc.byte e 2;
      Enc.f64 e time;
      Enc.uint e round;
      Enc.list e enc_pair placements;
      Enc.list e Enc.int cancelled;
      Enc.f64 e think
  | Commit { round } ->
      Enc.byte e 3;
      Enc.uint e round
  | Complete { time; token; tg_id; machine } ->
      Enc.byte e 4;
      Enc.f64 e time;
      Enc.uint e token;
      Enc.int e tg_id;
      Enc.int e machine
  | Node_fail { time; node; killed } ->
      Enc.byte e 5;
      Enc.f64 e time;
      Enc.int e node;
      Enc.list e enc_pair killed
  | Requeue { time; tg_id; lost; attempt; retry_time } ->
      Enc.byte e 6;
      Enc.f64 e time;
      Enc.int e tg_id;
      Enc.uint e lost;
      Enc.uint e attempt;
      Enc.f64 e retry_time
  | Fault_cancel { time; tg_id; lost } ->
      Enc.byte e 7;
      Enc.f64 e time;
      Enc.int e tg_id;
      Enc.uint e lost
  | Node_recover { time; node; downtime_s } ->
      Enc.byte e 8;
      Enc.f64 e time;
      Enc.int e node;
      Enc.f64 e downtime_s
  | Admit { admit_id; client; poly } ->
      Enc.byte e admit_tag;
      Enc.uint e admit_id;
      Enc.string e client;
      Hire.Persist.enc_poly e poly
  | Inject { time; admit_ids } ->
      Enc.byte e inject_tag;
      Enc.f64 e time;
      Enc.list e Enc.uint admit_ids);
  Enc.to_string e

let decode_body d =
  match Dec.byte d with
  | 0 ->
      let time = Dec.f64 d in
      let job_id = Dec.int d in
      Submit { time; job_id }
  | 1 ->
      let time = Dec.f64 d in
      let job_id = Dec.int d in
      let tg_ids = Dec.list d Dec.int in
      Resubmit { time; job_id; tg_ids }
  | 2 ->
      let time = Dec.f64 d in
      let round = Dec.uint d in
      let placements = Dec.list d dec_pair in
      let cancelled = Dec.list d Dec.int in
      let think = Dec.f64 d in
      Round { time; round; placements; cancelled; think }
  | 3 ->
      let round = Dec.uint d in
      Commit { round }
  | 4 ->
      let time = Dec.f64 d in
      let token = Dec.uint d in
      let tg_id = Dec.int d in
      let machine = Dec.int d in
      Complete { time; token; tg_id; machine }
  | 5 ->
      let time = Dec.f64 d in
      let node = Dec.int d in
      let killed = Dec.list d dec_pair in
      Node_fail { time; node; killed }
  | 6 ->
      let time = Dec.f64 d in
      let tg_id = Dec.int d in
      let lost = Dec.uint d in
      let attempt = Dec.uint d in
      let retry_time = Dec.f64 d in
      Requeue { time; tg_id; lost; attempt; retry_time }
  | 7 ->
      let time = Dec.f64 d in
      let tg_id = Dec.int d in
      let lost = Dec.uint d in
      Fault_cancel { time; tg_id; lost }
  | 8 ->
      let time = Dec.f64 d in
      let node = Dec.int d in
      let downtime_s = Dec.f64 d in
      Node_recover { time; node; downtime_s }
  | 9 ->
      let admit_id = Dec.uint d in
      let client = Dec.string d in
      let poly = Hire.Persist.dec_poly d in
      Admit { admit_id; client; poly }
  | 10 ->
      let time = Dec.f64 d in
      let admit_ids = Dec.list d Dec.uint in
      Inject { time; admit_ids }
  | b -> raise (Prelude.Codec.Error (Printf.sprintf "Wal: unknown record tag %d" b))

let decode body =
  let d = Dec.of_string body in
  let r = decode_body d in
  if not (Dec.at_end d) then
    raise (Prelude.Codec.Error "Wal: trailing bytes after record");
  r

let kind = function
  | Submit _ -> "submit"
  | Resubmit _ -> "resubmit"
  | Round _ -> "round"
  | Commit _ -> "commit"
  | Complete _ -> "complete"
  | Node_fail _ -> "node_fail"
  | Requeue _ -> "requeue"
  | Fault_cancel _ -> "fault_cancel"
  | Node_recover _ -> "node_recover"
  | Admit _ -> "admit"
  | Inject _ -> "inject"

let pp fmt = function
  | Submit { time; job_id } -> Format.fprintf fmt "submit t=%.6f job=%d" time job_id
  | Resubmit { time; job_id; tg_ids } ->
      Format.fprintf fmt "resubmit t=%.6f job=%d tgs=[%s]" time job_id
        (String.concat "," (List.map string_of_int tg_ids))
  | Round { time; round; placements; cancelled; think } ->
      Format.fprintf fmt "round t=%.6f n=%d placed=%d cancelled=%d think=%.6f" time round
        (List.length placements) (List.length cancelled) think
  | Commit { round } -> Format.fprintf fmt "commit n=%d" round
  | Complete { time; token; tg_id; machine } ->
      Format.fprintf fmt "complete t=%.6f token=%d tg=%d machine=%d" time token tg_id machine
  | Node_fail { time; node; killed } ->
      Format.fprintf fmt "node_fail t=%.6f node=%d groups=%d" time node (List.length killed)
  | Requeue { time; tg_id; lost; attempt; retry_time } ->
      Format.fprintf fmt "requeue t=%.6f tg=%d lost=%d attempt=%d retry=%.6f" time tg_id lost
        attempt retry_time
  | Fault_cancel { time; tg_id; lost } ->
      Format.fprintf fmt "fault_cancel t=%.6f tg=%d lost=%d" time tg_id lost
  | Node_recover { time; node; downtime_s } ->
      Format.fprintf fmt "node_recover t=%.6f node=%d downtime=%.3f" time node downtime_s
  | Admit { admit_id; client; poly } ->
      Format.fprintf fmt "admit id=%d client=%S job=%d tgs=%d" admit_id client
        poly.Hire.Poly_req.job_id
        (List.length poly.Hire.Poly_req.task_groups)
  | Inject { time; admit_ids } ->
      Format.fprintf fmt "inject t=%.6f ids=[%s]" time
        (String.concat "," (List.map string_of_int admit_ids))
