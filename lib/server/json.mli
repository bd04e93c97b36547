(** Minimal JSON for the admission-API wire protocol (docs/SERVER.md).

    Deliberately small: the protocol is newline-delimited single-line
    JSON objects, so this parser accepts one self-contained value per
    call and fails closed — with a position-annotated message, never an
    exception — on anything malformed, truncated, too deep, or followed
    by trailing garbage.  Numbers are IEEE doubles, strings are byte
    strings with the standard escapes ([\uXXXX] decodes to UTF-8).
    Emission is canonical enough for tests to compare bytes: fields in
    the order given, no whitespace. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [parse s] reads exactly one JSON value spanning all of [s]
    (surrounding whitespace allowed).  [max_depth] (default 32) bounds
    nesting so hostile input cannot blow the stack; [Error msg] names
    the byte offset of the problem. *)
val parse : ?max_depth:int -> string -> (t, string) result

(** Compact canonical rendering (no whitespace; strings use the
    standard short escapes plus [\u00XX] for other control bytes).
    Non-finite numbers render as [null] — JSON has no spelling for
    them. *)
val to_string : t -> string

(** {1 Accessors} — total, for protocol code that must never raise. *)

(** Field of an object, [None] on missing field or non-object. *)
val member : string -> t -> t option

val to_float : t -> float option
val to_int : t -> int option  (** floats with integral value only *)

val to_str : t -> string option
val to_list : t -> t list option
