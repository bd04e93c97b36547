(** Deterministic binary codec for the journal subsystem
    (docs/JOURNAL.md).

    Integers are LEB128 varints (zigzag for signed), floats are their
    exact IEEE-754 bits little-endian, strings and sequences are
    length-prefixed.  Encoding the same value always yields the same
    bytes, so journal validation can compare records byte-for-byte, and
    decoding restores floats bit-exactly — the property crash recovery
    rests on. *)

(** Raised by every decoder on malformed input; callers at the journal
    layer convert it into a structured journal error. *)
exception Error of string

module Enc : sig
  type t

  val create : ?initial:int -> unit -> t
  val to_string : t -> string
  val byte : t -> int -> unit

  (** Unsigned LEB128.  @raise Invalid_argument on negatives. *)
  val uint : t -> int -> unit

  (** Zigzag varint: small negatives encode small. *)
  val int : t -> int -> unit

  val bool : t -> bool -> unit

  (** Exact IEEE-754 bits, little-endian. *)
  val f64 : t -> float -> unit

  val string : t -> string -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val array : t -> (t -> 'a -> unit) -> 'a array -> unit
  val float_array : t -> float array -> unit
end

module Dec : sig
  type t

  val of_string : string -> t
  val remaining : t -> int
  val at_end : t -> bool
  val byte : t -> int

  (** @raise Error on a value above [max_int], which {!Enc.uint} cannot
      have written.  Like {!int}, it accepts only the encoder's own
      varint: a final 0x00 after a continuation byte (an overlong
      encoding) raises [Error], so each value decodes from one byte
      string only. *)
  val uint : t -> int

  val int : t -> int
  val bool : t -> bool
  val f64 : t -> float
  val string : t -> string
  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
  val array : t -> (t -> 'a) -> 'a array
  val float_array : t -> float array
end

(** [decode_string blob f] runs a decoder, catching {!Error} (and
    [Invalid_argument] from validating constructors) into [Result]. *)
val decode_string : string -> (Dec.t -> 'a) -> ('a, string) result
