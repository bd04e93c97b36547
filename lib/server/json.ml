(* Minimal JSON codec for the admission wire protocol (docs/SERVER.md).
   Hand-rolled recursive descent: the container ships no JSON library
   and the protocol needs only single-line values.  Everything fails
   closed — hostile input (truncation, deep nesting, bad escapes,
   trailing garbage) yields [Error] with a byte offset, never an
   exception and never a stack overflow. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of string

type state = { s : string; mutable pos : int; max_depth : int }

let fail st msg = raise (Fail (Printf.sprintf "%s at byte %d" msg st.pos))
let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail st (Printf.sprintf "expected '%c', found '%c'" c d)
  | None -> fail st (Printf.sprintf "expected '%c', found end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

(* UTF-8 encode one scalar value (already surrogate-combined). *)
let utf8_add buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "bad hex digit in \\u escape"
  in
  if st.pos + 4 > String.length st.s then fail st "truncated \\u escape";
  let v =
    (digit st.s.[st.pos] lsl 12)
    lor (digit st.s.[st.pos + 1] lsl 8)
    lor (digit st.s.[st.pos + 2] lsl 4)
    lor digit st.s.[st.pos + 3]
  in
  st.pos <- st.pos + 4;
  v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        (match peek st with
        | None -> fail st "truncated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let u = hex4 st in
                if u >= 0xD800 && u <= 0xDBFF then begin
                  (* high surrogate: require the low half *)
                  if
                    st.pos + 2 <= String.length st.s
                    && st.s.[st.pos] = '\\'
                    && st.s.[st.pos + 1] = 'u'
                  then begin
                    st.pos <- st.pos + 2;
                    let lo = hex4 st in
                    if lo < 0xDC00 || lo > 0xDFFF then
                      fail st "unpaired surrogate in \\u escape";
                    utf8_add buf
                      (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
                  end
                  else fail st "unpaired surrogate in \\u escape"
                end
                else if u >= 0xDC00 && u <= 0xDFFF then
                  fail st "unpaired surrogate in \\u escape"
                else utf8_add buf u
            | _ -> fail st "unknown escape"));
        loop ()
    | Some c when Char.code c < 0x20 -> fail st "raw control byte in string"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume_while pred =
    while st.pos < String.length st.s && pred st.s.[st.pos] do
      advance st
    done
  in
  if peek st = Some '-' then advance st;
  let digits_start = st.pos in
  consume_while (function '0' .. '9' -> true | _ -> false);
  if st.pos = digits_start then fail st "expected digits";
  if peek st = Some '.' then begin
    advance st;
    let frac_start = st.pos in
    consume_while (function '0' .. '9' -> true | _ -> false);
    if st.pos = frac_start then fail st "expected digits after '.'"
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      let exp_start = st.pos in
      consume_while (function '0' .. '9' -> true | _ -> false);
      if st.pos = exp_start then fail st "expected exponent digits"
  | _ -> ());
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail st "unparsable number"

let rec parse_value st depth =
  if depth > st.max_depth then fail st "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' -> parse_obj st depth
  | Some '[' -> parse_arr st depth
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

and parse_obj st depth =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec members () =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st (depth + 1) in
      fields := (key, v) :: !fields;
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          members ()
      | Some '}' -> advance st
      | _ -> fail st "expected ',' or '}'"
    in
    members ();
    Obj (List.rev !fields)
  end

and parse_arr st depth =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    Arr []
  end
  else begin
    let items = ref [] in
    let rec elements () =
      let v = parse_value st (depth + 1) in
      items := v :: !items;
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          elements ()
      | Some ']' -> advance st
      | _ -> fail st "expected ',' or ']'"
    in
    elements ();
    Arr (List.rev !items)
  end

let parse ?(max_depth = 32) s =
  let st = { s; pos = 0; max_depth } in
  match parse_value st 0 with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
      else Ok v
  | exception Fail msg -> Error msg

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_num buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Num f -> add_num buf f
  | Str s -> escape_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 64 in
  emit buf v;
  Buffer.contents buf

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr items -> Some items | _ -> None
