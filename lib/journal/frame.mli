(** Record framing shared by the WAL and checkpoint files:
    [[u32 len][u32 crc][payload]] with little-endian fixed fields, [len]
    the payload length and [crc] the IEEE CRC-32 of the payload.  WAL
    record payloads are [varint seq ++ length-prefixed body].  Exposed
    mainly so the adversarial-input tests can craft damaged frames. *)

val put_u32 : Buffer.t -> int -> unit

(** Little-endian u32 at [pos]; the caller guarantees 4 bytes. *)
val get_u32 : string -> int -> int

(** Frame an opaque payload (file header, checkpoint body). *)
val encode_payload : string -> string

(** Frame one WAL record: payload = varint [seq] + length-prefixed
    [body]. *)
val encode_record : seq:int -> string -> string

(** Parse the frame at [pos]: the payload and the next offset, [`End] at
    EOF, [`Torn] when the remaining bytes are a proper prefix of a
    frame, [`Corrupt] for a complete frame that fails validation. *)
val read_payload :
  string -> pos:int -> [ `End | `Torn | `Corrupt of string | `Payload of string * int ]
