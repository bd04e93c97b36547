type tail = Clean | Torn of { offset : int }

type loaded = {
  header : string;  (** the opaque spec blob written by {!Sink.create} *)
  records : string array;  (** record bodies, index = sequence number *)
  valid_end : int;  (** byte offset just past the last whole record *)
  tail : tail;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan ~path s =
  let err e = Result.Error e in
  let len_total = String.length s in
  let magic_len = String.length Sink.magic in
  if len_total = 0 then err (Error.Empty { path })
  else if len_total < magic_len + 4 then err (Error.Bad_magic { path })
  else if String.sub s 0 magic_len <> Sink.magic then err (Error.Bad_magic { path })
  else begin
    let version = Frame.get_u32 s magic_len in
    if version <> Sink.version then err (Error.Bad_version { path; version })
    else begin
      match Frame.read_payload s ~pos:(magic_len + 4) with
      | `End | `Torn -> err (Error.Truncated_header { path })
      | `Corrupt _ -> err (Error.Truncated_header { path })
      | `Payload (header, pos0) ->
          let records = ref [] in
          let rec go pos seq =
            match Frame.read_payload s ~pos with
            | `End -> Ok { header; records = [||]; valid_end = pos; tail = Clean }
            | `Torn -> Ok { header; records = [||]; valid_end = pos; tail = Torn { offset = pos } }
            | `Corrupt reason -> err (Error.Corrupt_record { path; seq; offset = pos; reason })
            | `Payload (payload, next) -> (
                match
                  Prelude.Codec.decode_string payload (fun d ->
                      let got = Prelude.Codec.Dec.uint d in
                      (got, Prelude.Codec.Dec.string d))
                with
                | Result.Error reason ->
                    err (Error.Corrupt_record { path; seq; offset = pos; reason })
                | Ok (got, _) when got = seq - 1 && seq > 0 ->
                    err (Error.Duplicate_seq { path; seq = got; offset = pos })
                | Ok (got, _) when got <> seq ->
                    err
                      (Error.Corrupt_record
                         {
                           path;
                           seq;
                           offset = pos;
                           reason = Printf.sprintf "sequence %d where %d expected" got seq;
                         })
                | Ok (_, body) ->
                    records := body :: !records;
                    go next (seq + 1))
          in
          Result.map
            (fun (l : loaded) ->
              { l with records = Array.of_list (List.rev !records) })
            (go pos0 0)
    end
  end

let load ~path =
  if not (Sys.file_exists path) then Result.Error (Error.Missing { path })
  else scan ~path (read_file path)
