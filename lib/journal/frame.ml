(* Record framing shared by the WAL and checkpoint files:

     [u32 len][u32 crc][payload]            (little-endian fixed fields)

   [len] is the payload length, [crc] the IEEE CRC-32 of the payload.
   WAL payloads start with a varint sequence number followed by the
   record body; the file-header payload and checkpoint payloads are
   opaque to this module. *)

module Crc32 = Prelude.Crc32

(* Frames above this payload length are rejected as corrupt. *)
let max_len = 1 lsl 30

let put_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let get_u32 s pos =
  let b i = Char.code (String.unsafe_get s (pos + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let encode_payload payload =
  let buf = Buffer.create (String.length payload + 8) in
  put_u32 buf (String.length payload);
  put_u32 buf (Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let encode_record ~seq body =
  let e = Prelude.Codec.Enc.create ~initial:(String.length body + 8) () in
  Prelude.Codec.Enc.uint e seq;
  Prelude.Codec.Enc.string e body;
  encode_payload (Prelude.Codec.Enc.to_string e)

(* One framed payload at [pos].  [`Torn] means the remaining bytes are a
   proper prefix of a frame (the crash-mid-append signature); [`Corrupt]
   means a complete frame failed its checks. *)
let read_payload s ~pos =
  let len_total = String.length s in
  let remaining = len_total - pos in
  if remaining = 0 then `End
  else if remaining < 8 then `Torn
  else begin
    let len = get_u32 s pos in
    if len > max_len then `Corrupt "implausible length"
    else if remaining - 8 < len then `Torn
    else begin
      let crc = get_u32 s (pos + 4) in
      if Crc32.update 0 s ~pos:(pos + 8) ~len <> crc then `Corrupt "checksum mismatch"
      else `Payload (String.sub s (pos + 8) len, pos + 8 + len)
    end
  end
