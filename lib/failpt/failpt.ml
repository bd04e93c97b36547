module Rng = Prelude.Rng

type outcome =
  | Errno of Unix.error
  | Short of int
  | Delay of float
  | Trip
  | Crash of int

(* A stable string -> int map with no dependence on the polymorphic
   hash (banned from the solver libraries by [make lint-compare]). *)
let string_seed s =
  String.fold_left (fun h c -> (((h * 31) + Char.code c) land 0x3FFFFFFF)) 5381 s

(* One [->]-chained term.  [action = None] is [off]: it consumes its
   count like any other term but injects nothing. *)
type term = {
  prob : float;  (* fire probability per evaluation *)
  mutable left : int;  (* remaining fires; -1 = unlimited *)
  action : outcome option;
}

type site = {
  spec : string;  (* the spec this site was armed with, for {!describe} *)
  terms : term list;  (* tried in order; the first that fires wins *)
  rng : Rng.t;  (* private stream: draws depend only on this site *)
}

type t = { seed : int; mutable sites : (string * site) list }

(* [None] until the first query, then the resolved state; [activate] and
   [deactivate] pin it regardless of the environment. *)
let current : t option ref = ref None
let resolved = ref false

let activate ~seed =
  current := Some { seed; sites = [] };
  resolved := true

let deactivate () =
  current := None;
  resolved := true

let errno_of_action = function
  | "enospc" -> Some Unix.ENOSPC
  | "eio" -> Some Unix.EIO
  | "epipe" -> Some Unix.EPIPE
  | "econnreset" -> Some Unix.ECONNRESET
  | "econnaborted" -> Some Unix.ECONNABORTED
  | "emfile" -> Some Unix.EMFILE
  | "etimedout" -> Some Unix.ETIMEDOUT
  | _ -> None

let bad spec reason =
  invalid_arg (Printf.sprintf "HIRE_FAILPOINTS: bad spec %S (%s)" spec reason)

let non_negative_int spec what a =
  match int_of_string_opt a with
  | Some k when k >= 0 -> k
  | _ -> bad spec (what ^ " needs a non-negative byte count")

(* [term ::= [P%][N*]action[(arg)]] *)
let parse_term spec s =
  let prob, s =
    match String.index_opt s '%' with
    | None -> (1.0, s)
    | Some i -> (
        let head = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt head with
        | Some p when p >= 0.0 && p <= 100.0 -> (p /. 100.0, rest)
        | _ -> bad spec "percentage must be a number in [0,100]")
  in
  let left, s =
    match String.index_opt s '*' with
    | None -> (-1, s)
    | Some i -> (
        let head = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt head with
        | Some n when n >= 0 -> (n, rest)
        | _ -> bad spec "count must be a non-negative integer")
  in
  let name, arg =
    match String.index_opt s '(' with
    | None -> (s, None)
    | Some i ->
        if s.[String.length s - 1] <> ')' then bad spec "unterminated argument"
        else (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 2)))
  in
  let action =
    match (errno_of_action name, name, arg) with
    | Some e, _, None -> Some (Errno e)
    | None, "off", None -> None
    | None, "trip", None -> Some Trip
    | Some _, _, Some _ | None, ("off" | "trip"), Some _ ->
        bad spec (name ^ " takes no argument")
    | None, "short", Some a -> Some (Short (non_negative_int spec "short(k)" a))
    | None, "crash", Some a -> Some (Crash (non_negative_int spec "crash(tear)" a))
    | None, "delay", Some a -> (
        match float_of_string_opt a with
        | Some d when d >= 0.0 && Float.is_finite d -> Some (Delay d)
        | _ -> bad spec "delay(s) needs a non-negative finite duration")
    | None, ("short" | "crash" | "delay"), None -> bad spec "missing argument"
    | None, _, _ -> bad spec "unknown action"
  in
  { prob; left; action }

(* Split on the fail-style [->] chain operator. *)
let split_chain s =
  let n = String.length s in
  let rec go start i acc =
    if i + 1 >= n then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '-' && s.[i + 1] = '>' then
      go (i + 2) (i + 2) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

(* [spec ::= "off" | term ("->" term)*] — [None] for a bare "off",
   which disarms the site. *)
let parse_spec spec =
  let s = String.trim spec in
  if String.equal s "off" then None
  else
    Some
      (List.map
         (fun t ->
           let t = String.trim t in
           if String.equal t "" then bad spec "empty term in a -> chain"
           else parse_term spec t)
         (split_chain s))

(* Every parse happens before this: installing never raises, so a bad
   value leaves the registry exactly as it was. *)
let install t name spec parsed =
  let sites = List.remove_assoc name t.sites in
  t.sites <-
    (match parsed with
    | None -> sites
    | Some terms ->
        let rng = Rng.create (t.seed lxor string_seed name) in
        (name, { spec = String.trim spec; terms; rng }) :: sites)

let set name spec =
  let parsed = parse_spec spec in
  let t =
    match !current with
    | Some t -> t
    | None ->
        activate ~seed:0;
        Option.get !current
  in
  install t name spec parsed

let clear name =
  match !current with
  | None -> ()
  | Some t -> t.sites <- List.remove_assoc name t.sites

(* Full HIRE_FAILPOINTS value: ';'/','-separated [seed=N] and
   [site=spec] terms.  The seed term is applied first regardless of
   position so site streams are always derived from it. *)
let load value =
  let split_term term =
    match String.index_opt term '=' with
    | None -> invalid_arg (Printf.sprintf "HIRE_FAILPOINTS: bad term %S (want site=spec)" term)
    | Some i ->
        ( String.trim (String.sub term 0 i),
          String.trim (String.sub term (i + 1) (String.length term - i - 1)) )
  in
  let kvs =
    String.split_on_char ';' value
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun s -> not (String.equal s ""))
    |> List.map split_term
  in
  let seed =
    match List.assoc_opt "seed" kvs with
    | None -> 0
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> invalid_arg (Printf.sprintf "HIRE_FAILPOINTS: bad seed %S" v))
  in
  let sites =
    List.filter_map
      (fun (k, v) -> if String.equal k "seed" then None else Some (k, v, parse_spec v))
      kvs
  in
  activate ~seed;
  let t = Option.get !current in
  List.iter (fun (k, v, parsed) -> install t k v parsed) sites

(* A value that fails to parse leaves [resolved] unset, so every later
   query raises again instead of silently running disarmed. *)
let resolve () =
  if not !resolved then
    match Sys.getenv_opt "HIRE_FAILPOINTS" with
    | None | Some "" | Some "0" -> deactivate ()
    | Some v -> load v

let init_env () = resolve ()

let find name =
  resolve ();
  match !current with None -> None | Some t -> List.assoc_opt name t.sites

(* The first term that still has fires left and wins its draw decides;
   a term whose draw fails falls through to the next one. *)
let rec first_firing rng = function
  | [] -> None
  | tm :: rest ->
      if tm.left = 0 || not (Rng.bernoulli rng tm.prob) then first_firing rng rest
      else begin
        if tm.left > 0 then tm.left <- tm.left - 1;
        tm.action
      end

let eval name =
  match find name with
  | None -> None
  | Some s -> (
      match first_firing s.rng s.terms with
      | None -> None
      | Some _ as fired ->
          if Obs.enabled () then begin
            Obs.Registry.incr (Obs.Registry.counter "failpt.fired");
            Obs.Registry.incr (Obs.Registry.counter ("failpt.fired." ^ name))
          end;
          fired)

let stream name = Option.map (fun s -> s.rng) (find name)

let describe () =
  resolve ();
  match !current with
  | None -> ""
  | Some t ->
      let sites =
        List.sort (fun (a, _) (b, _) -> String.compare a b) t.sites
        |> List.map (fun (n, s) -> Printf.sprintf "%s=%s" n s.spec)
      in
      String.concat " " (Printf.sprintf "seed=%d" t.seed :: sites)

let announce () =
  match describe () with
  | "" -> ()
  | d -> Printf.eprintf "fault injection armed: failpoints %s\n%!" d
