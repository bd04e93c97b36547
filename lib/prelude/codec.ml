exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

module Enc = struct
  type t = Buffer.t

  let create ?(initial = 256) () = Buffer.create initial
  let to_string = Buffer.contents

  let byte b v = Buffer.add_char b (Char.chr (v land 0xFF))

  (* Unsigned LEB128 over the full 63-bit native range. *)
  let uint b v =
    if v < 0 then invalid_arg "Codec.Enc.uint: negative";
    let rec go v =
      if v < 0x80 then byte b v
      else begin
        byte b (0x80 lor (v land 0x7F));
        go (v lsr 7)
      end
    in
    go v

  (* Raw 63-bit varint: logical shifts, so bit patterns with the sign
     bit set (zigzagged extremes like [min_int]) still encode. *)
  let varint_bits b v =
    let rec go v =
      if v land lnot 0x7F = 0 then byte b v
      else begin
        byte b (0x80 lor (v land 0x7F));
        go (v lsr 7)
      end
    in
    go v

  (* Zigzag so small negatives stay small (requeue job ids are negative).
     [lsl] wraps, which is exactly what full-width zigzag needs: the
     decoder's [(v lsr 1) lxor (-(v land 1))] inverts it bit for bit. *)
  let int b v = varint_bits b ((v lsl 1) lxor (v asr 62))
  let bool b v = byte b (if v then 1 else 0)

  let f64 b v =
    let bits = Int64.bits_of_float v in
    for i = 0 to 7 do
      byte b (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF)
    done

  let string b s =
    uint b (String.length s);
    Buffer.add_string b s

  let option b f = function
    | None -> bool b false
    | Some v ->
        bool b true;
        f b v

  let list b f l =
    uint b (List.length l);
    List.iter (f b) l

  let array b f a =
    uint b (Array.length a);
    Array.iter (f b) a

  let float_array b a = array b f64 a
end

module Dec = struct
  type t = { s : string; mutable pos : int }

  let of_string s = { s; pos = 0 }
  let remaining d = String.length d.s - d.pos
  let at_end d = remaining d = 0

  let byte d =
    if d.pos >= String.length d.s then fail "unexpected end of input at %d" d.pos;
    let c = Char.code (String.unsafe_get d.s d.pos) in
    d.pos <- d.pos + 1;
    c

  (* Raw 63-bit varint, the inverse of [Enc.varint_bits]: a result with
     the sign bit set is a legal zigzag pattern, not an error.  Only the
     encoder's own form decodes: a final 0x00 after a continuation byte
     pads the value with a zero group [Enc.varint_bits] never writes, so
     it is corrupt input, and every value has one encoding. *)
  let varint_bits d =
    let rec go shift acc =
      if shift > 62 then fail "varint overflow at %d" d.pos;
      let b = byte d in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 <> 0 then go (shift + 7) acc
      else if b = 0 && shift > 0 then fail "overlong varint at %d" (d.pos - 1)
      else acc
    in
    go 0 0

  (* [Enc.uint] never writes a negative, so one here is corrupt input;
     lengths and counts decode through this and may trust the sign. *)
  let uint d =
    let pos = d.pos in
    let v = varint_bits d in
    if v < 0 then fail "varint out of range at %d" pos;
    v

  let int d =
    let v = varint_bits d in
    (v lsr 1) lxor (-(v land 1))

  let bool d =
    match byte d with
    | 0 -> false
    | 1 -> true
    | b -> fail "bad bool byte %d at %d" b d.pos

  let f64 d =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte d)) (8 * i))
    done;
    Int64.float_of_bits !bits

  let string d =
    let n = uint d in
    if n > remaining d then fail "string length %d exceeds input at %d" n d.pos;
    let s = String.sub d.s d.pos n in
    d.pos <- d.pos + n;
    s

  let option d f = if bool d then Some (f d) else None

  let list d f =
    let n = uint d in
    List.init n (fun _ -> f d)

  let array d f =
    let n = uint d in
    if n > remaining d then fail "array length %d exceeds input at %d" n d.pos;
    Array.init n (fun _ -> f d)

  let float_array d = array d f64
end

let decode_string blob f =
  try Ok (f (Dec.of_string blob)) with
  | Error msg -> Result.Error msg
  | Invalid_argument msg -> Result.Error msg
