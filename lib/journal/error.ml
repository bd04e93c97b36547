type t =
  | Missing of { path : string }
  | Empty of { path : string }
  | Bad_magic of { path : string }
  | Bad_version of { path : string; version : int }
  | Truncated_header of { path : string }
  | Corrupt_record of { path : string; seq : int; offset : int; reason : string }
  | Duplicate_seq of { path : string; seq : int; offset : int }
  | Divergence of { seq : int; detail : string }
  | Io of { path : string; op : string; error : Unix.error }
  | State of string

exception Journal_error of t

let pp fmt = function
  | Missing { path } -> Format.fprintf fmt "journal: %s does not exist" path
  | Empty { path } -> Format.fprintf fmt "journal: %s is empty" path
  | Bad_magic { path } -> Format.fprintf fmt "journal: %s has no journal magic" path
  | Bad_version { path; version } ->
      Format.fprintf fmt "journal: %s has unsupported version %d" path version
  | Truncated_header { path } ->
      Format.fprintf fmt "journal: %s is truncated inside the file header" path
  | Corrupt_record { path; seq; offset; reason } ->
      Format.fprintf fmt "journal: %s record %d at byte %d is corrupt (%s)" path seq
        offset reason
  | Duplicate_seq { path; seq; offset } ->
      Format.fprintf fmt "journal: %s repeats sequence number %d at byte %d" path seq
        offset
  | Divergence { seq; detail } ->
      Format.fprintf fmt
        "journal: replay diverged from the stored record at seq %d (%s)" seq detail
  | Io { path; op; error } ->
      Format.fprintf fmt "journal: %s: %s failed: %s" path op (Unix.error_message error)
  | State msg -> Format.fprintf fmt "journal: %s" msg

let to_string e = Format.asprintf "%a" pp e
let raise_ e = raise (Journal_error e)
