(* Admission-API wire protocol: parse + validate one JSON request line,
   render one JSON response line (docs/SERVER.md).  Validation is the
   admission firewall — nothing reaches the journal until a request has
   fully validated, so a malformed or hostile line can never leave a
   record behind. *)

type inc = No_inc | Auto | Service of string

type job_spec = {
  priority : Workload.Job.priority;
  groups : Workload.Job.task_group list;
  inc : inc;
  client_id : string option;
}

type request = Submit of job_spec | Status of int | Stats | Drain | Shutdown

(* One request per line; a line longer than this is rejected before it
   is buffered whole.  64 KiB comfortably fits max_groups groups. *)
let max_line_bytes = 65536
let max_groups = 8
let max_count = 4096 (* tasks per group *)

(* Resource bounds: generous relative to any node flavor, tight enough
   that a single submission cannot degenerate the solver. *)
let max_resource = 1024.0
let max_duration = 1e7
let max_client_id = 128

let ( let* ) = Result.bind

let field name v = Json.member name v
let missing name = Error (Printf.sprintf "missing field %S" name)

let req_str name v =
  match field name v with
  | Some j -> (
      match Json.to_str j with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "field %S must be a string" name))
  | None -> missing name

let pos_float ~max name j =
  match Json.to_float j with
  | Some f when Float.is_finite f && f > 0.0 && f <= max -> Ok f
  | Some _ ->
      Error (Printf.sprintf "field %S must be a finite float in (0, %g]" name max)
  | None -> Error (Printf.sprintf "field %S must be a number" name)

let parse_group i v =
  match v with
  | Json.Obj _ ->
      let* count =
        match field "count" v with
        | None -> missing "count"
        | Some j -> (
            match Json.to_int j with
            | Some c when c >= 1 && c <= max_count -> Ok c
            | _ ->
                Error
                  (Printf.sprintf "field \"count\" must be an integer in [1, %d]"
                     max_count))
      in
      let* cpu =
        match field "cpu" v with
        | None -> missing "cpu"
        | Some j -> pos_float ~max:max_resource "cpu" j
      in
      let* mem =
        match field "mem" v with
        | None -> missing "mem"
        | Some j -> pos_float ~max:max_resource "mem" j
      in
      let* duration =
        match field "duration" v with
        | None -> missing "duration"
        | Some j -> pos_float ~max:max_duration "duration" j
      in
      Ok { Workload.Job.tg_index = i; count; cpu; mem; duration }
  | _ -> Error (Printf.sprintf "group %d must be an object" i)

let parse_groups v =
  match field "groups" v with
  | None -> missing "groups"
  | Some j -> (
      match Json.to_list j with
      | None -> Error "field \"groups\" must be an array"
      | Some [] -> Error "field \"groups\" must not be empty"
      | Some items when List.length items > max_groups ->
          Error (Printf.sprintf "at most %d groups per submission" max_groups)
      | Some items ->
          let rec build i acc = function
            | [] -> Ok (List.rev acc)
            | g :: rest ->
                let* tg = parse_group i g in
                build (i + 1) (tg :: acc) rest
          in
          build 0 [] items)

let parse_submit v =
  let* priority =
    let* p = req_str "priority" v in
    match p with
    | "batch" -> Ok Workload.Job.Batch
    | "service" -> Ok Workload.Job.Service
    | _ -> Error "field \"priority\" must be \"batch\" or \"service\""
  in
  let* groups = parse_groups v in
  let* inc =
    match field "inc" v with
    | None | Some Json.Null -> Ok No_inc
    | Some j -> (
        match Json.to_str j with
        | Some "none" -> Ok No_inc
        | Some "auto" -> Ok Auto
        | Some s when String.length s > 0 && String.length s <= max_client_id ->
            Ok (Service s)
        | Some _ -> Error "field \"inc\" must be \"none\", \"auto\", or a service name"
        | None -> Error "field \"inc\" must be a string")
  in
  let* client_id =
    match field "client_id" v with
    | None | Some Json.Null -> Ok None
    | Some j -> (
        match Json.to_str j with
        | Some s when String.length s > 0 && String.length s <= max_client_id ->
            Ok (Some s)
        | Some _ ->
            Error
              (Printf.sprintf "field \"client_id\" must be 1..%d bytes"
                 max_client_id)
        | None -> Error "field \"client_id\" must be a string")
  in
  Ok (Submit { priority; groups; inc; client_id })

let parse_request line =
  if String.length line > max_line_bytes then
    Error (Printf.sprintf "line exceeds %d bytes" max_line_bytes)
  else
    let* v = Json.parse line in
    match v with
    | Json.Obj _ -> (
        let* op = req_str "op" v in
        match op with
        | "submit" -> parse_submit v
        | "status" -> (
            match field "id" v with
            | None -> missing "id"
            | Some j -> (
                match Json.to_int j with
                | Some id when id >= 0 -> Ok (Status id)
                | _ -> Error "field \"id\" must be a non-negative integer"))
        | "stats" -> Ok Stats
        | "drain" -> Ok Drain
        | "shutdown" -> Ok Shutdown
        | op -> Error (Printf.sprintf "unknown op %S" op))
    | _ -> Error "request must be a JSON object"

let ok fields = Json.to_string (Json.Obj (("ok", Json.Bool true) :: fields))

let err msg =
  Json.to_string (Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ])

(* The shedding reply of degraded mode: [retriable] tells a client that
   a backoff retry with the same idempotency key is the right move
   (docs/FAILPOINTS.md). *)
let err_degraded =
  Json.to_string
    (Json.Obj
       [ ("ok", Json.Bool false); ("error", Json.Str "degraded");
         ("retriable", Json.Bool true) ])

let render_submit { priority; groups; inc; client_id } =
  let group (g : Workload.Job.task_group) =
    Json.Obj
      [
        ("count", Json.Num (float_of_int g.count));
        ("cpu", Json.Num g.cpu);
        ("mem", Json.Num g.mem);
        ("duration", Json.Num g.duration);
      ]
  in
  let base =
    [
      ("op", Json.Str "submit");
      ( "priority",
        Json.Str
          (match priority with Workload.Job.Batch -> "batch" | Service -> "service")
      );
      ("groups", Json.Arr (List.map group groups));
    ]
  in
  let base =
    base
    @ (match inc with
      | No_inc -> []
      | Auto -> [ ("inc", Json.Str "auto") ]
      | Service s -> [ ("inc", Json.Str s) ])
    @ match client_id with None -> [] | Some c -> [ ("client_id", Json.Str c) ]
  in
  Json.to_string (Json.Obj base)
