type level = Debug | Info | Warn
type value = Int of int | Float of float | Str of string | Bool of bool

type record = {
  seq : int;
  t_sim : float;
  t_wall : float;
  level : level;
  name : string;
  fields : (string * value) list;
}

(* --- ring buffer --- *)

let default_capacity = 65536
let ring : record option array ref = ref (Array.make default_capacity None)
let head = ref 0 (* next write position *)
let stored = ref 0
let seq_counter = ref 0
let sim_clock = ref 0.0
let sink : out_channel option ref = ref None

let set_sim_time t = sim_clock := t
let length () = !stored

let set_capacity n =
  if n <= 0 then invalid_arg "Trace.set_capacity: capacity must be positive";
  ring := Array.make n None;
  head := 0;
  stored := 0

let clear () =
  Array.fill !ring 0 (Array.length !ring) None;
  head := 0;
  stored := 0;
  seq_counter := 0

let records () =
  let cap = Array.length !ring in
  let n = !stored in
  let first = (!head - n + cap) mod cap in
  List.init n (fun i ->
      match !ring.((first + i) mod cap) with
      | Some r -> r
      | None -> assert false)

(* --- JSON rendering --- *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_add_json_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else begin
    let s = Printf.sprintf "%.17g" f in
    Buffer.add_string b s;
    (* a Float always shows a fraction or an exponent, so a reader can
       tell it from an Int *)
    if
      not
        (String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n' || c = 'i') s)
    then Buffer.add_string b ".0"
  end

let level_to_string = function Debug -> "debug" | Info -> "info" | Warn -> "warn"

let to_json r =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"seq\":";
  Buffer.add_string b (string_of_int r.seq);
  Buffer.add_string b ",\"t_sim\":";
  buf_add_json_float b r.t_sim;
  Buffer.add_string b ",\"t_wall\":";
  buf_add_json_float b r.t_wall;
  Buffer.add_string b ",\"level\":";
  buf_add_json_string b (level_to_string r.level);
  Buffer.add_string b ",\"event\":";
  buf_add_json_string b r.name;
  Buffer.add_string b ",\"fields\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      buf_add_json_string b k;
      Buffer.add_char b ':';
      match v with
      | Int n -> Buffer.add_string b (string_of_int n)
      | Float f -> buf_add_json_float b f
      | Str s -> buf_add_json_string b s
      | Bool bo -> Buffer.add_string b (if bo then "true" else "false"))
    r.fields;
  Buffer.add_string b "}}";
  Buffer.contents b

(* --- emission --- *)

let open_jsonl path =
  (match !sink with Some oc -> close_out oc | None -> ());
  sink := Some (open_out path)

let close_jsonl () =
  match !sink with
  | Some oc ->
      close_out oc;
      sink := None
  | None -> ()

let emit ?(level = Info) name fields =
  incr seq_counter;
  let r =
    {
      seq = !seq_counter;
      t_sim = !sim_clock;
      t_wall = Control.now_wall ();
      level;
      name;
      fields;
    }
  in
  let cap = Array.length !ring in
  !ring.(!head) <- Some r;
  head := (!head + 1) mod cap;
  if !stored < cap then incr stored;
  match !sink with
  | Some oc ->
      output_string oc (to_json r);
      output_char oc '\n'
  | None -> ()

let field r k = List.assoc_opt k r.fields
