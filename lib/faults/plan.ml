module Rng = Prelude.Rng

type kind = Fail | Recover

type event = { time : float; node : int; kind : kind }

type t = { events : event list }

type config = {
  server_mtbf : float;
  server_mttr : float;
  switch_mtbf : float;
  switch_mttr : float;
  inc_weight : float;
}

let default_config =
  {
    server_mtbf = 200.0;
    server_mttr = 30.0;
    switch_mtbf = 400.0;
    switch_mttr = 30.0;
    inc_weight = 1.0;
  }

let kind_to_string = function Fail -> "fail" | Recover -> "recover"

(* Cross-node ties break on (node, kind) so a plan is a deterministic
   function of its event multiset; Fail sorts before Recover only via
   per-node alternation (a node never fails and recovers at the same
   instant — [generate] separates them by at least [min_downtime]). *)
let order a b =
  let c = compare a.time b.time in
  if c <> 0 then c
  else
    let c = compare a.node b.node in
    if c <> 0 then c
    else compare (a.kind = Recover) (b.kind = Recover)

let validate events =
  let last : (int, float * kind) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if not (Float.is_finite e.time) || e.time < 0.0 then
        invalid_arg "Faults.Plan: event times must be finite and non-negative";
      match (Hashtbl.find_opt last e.node, e.kind) with
      | None, Fail -> Hashtbl.replace last e.node (e.time, Fail)
      | None, Recover ->
          invalid_arg
            (Printf.sprintf "Faults.Plan: node %d recovers before any failure" e.node)
      | Some (_, Fail), Fail | Some (_, Recover), Recover ->
          invalid_arg
            (Printf.sprintf "Faults.Plan: node %d has consecutive %s events" e.node
               (kind_to_string e.kind))
      | Some (t0, _), _ ->
          if e.time <= t0 then
            invalid_arg
              (Printf.sprintf "Faults.Plan: node %d events not strictly increasing" e.node);
          Hashtbl.replace last e.node (e.time, e.kind))
    events;
  events

let scripted events = { events = validate (List.sort order events) }

let events t = t.events
let is_empty t = t.events = []
let length t = List.length t.events

(* Lower bound on repair time: zero-length outages would make a fail and
   its recover coincide, where event order stops being meaningful. *)
let min_downtime = 1e-3

let check_config c =
  if c.server_mtbf <= 0.0 || c.switch_mtbf <= 0.0 then
    invalid_arg "Faults.Plan.generate: MTBF must be positive";
  if c.server_mttr <= 0.0 || c.switch_mttr <= 0.0 then
    invalid_arg "Faults.Plan.generate: MTTR must be positive";
  if c.inc_weight <= 0.0 then invalid_arg "Faults.Plan.generate: inc_weight must be positive"

let generate ?(inc_capable = fun _ -> false) config rng ~servers ~switches ~horizon =
  check_config config;
  if not (Float.is_finite horizon) || horizon < 0.0 then
    invalid_arg "Faults.Plan.generate: horizon must be finite and non-negative";
  let events = ref [] in
  (* One split stream per node, drawn in deterministic array order, so a
     node's fail/repair history is independent of every other node's. *)
  let gen_node node ~mtbf ~mttr =
    let r = Rng.split rng in
    let rec go t =
      let fail_t = t +. Rng.exponential r ~mean:mtbf in
      if fail_t <= horizon then begin
        let recover_t = fail_t +. Float.max min_downtime (Rng.exponential r ~mean:mttr) in
        events :=
          { time = recover_t; node; kind = Recover }
          :: { time = fail_t; node; kind = Fail }
          :: !events;
        go recover_t
      end
    in
    go 0.0
  in
  Array.iter
    (fun s -> gen_node s ~mtbf:config.server_mtbf ~mttr:config.server_mttr)
    servers;
  Array.iter
    (fun s ->
      let weight = if inc_capable s then config.inc_weight else 1.0 in
      gen_node s ~mtbf:(config.switch_mtbf /. weight) ~mttr:config.switch_mttr)
    switches;
  scripted !events
