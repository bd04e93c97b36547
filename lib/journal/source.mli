(** Read side of the write-ahead journal: a full scan that validates
    every frame (length, CRC-32, dense sequence numbers) before anything
    is handed to replay. *)

type tail =
  | Clean
  | Torn of { offset : int }
      (** the bytes past [offset] are an incomplete frame prefix — the
          signature of a crash mid-append *)

type loaded = {
  header : string;  (** the opaque spec blob written by {!Sink.create} *)
  records : string array;  (** record bodies; index = sequence number *)
  valid_end : int;  (** byte offset just past the last whole record *)
  tail : tail;
}

(** [load ~path] scans the whole journal.  A torn tail is reported, not
    an error — recovery truncates it via {!Sink.open_append}; everything
    else (bad magic/version, mid-file corruption, duplicate or gapped
    sequence numbers, empty file) fails closed. *)
val load : path:string -> (loaded, Error.t) result

(**/**)

val read_file : string -> string
