module Poly_req = Hire.Poly_req
module Flavor = Hire.Flavor

type mode = Concurrent | Timeout

let mode_to_string = function Concurrent -> "concurrent" | Timeout -> "timeout"

type tg_rt = {
  tg : Poly_req.task_group;
  mutable remaining : int;
  mutable placed_on : int list;
  switch_demand : Prelude.Vec.t option;
}

type decision = Undecided | Inc | Server

type mjob = {
  poly : Poly_req.t;
  arrival : float;
  common : tg_rt list;
  server_only : tg_rt list;
  inc_only : tg_rt list;
  deadline : float;
  mutable decision : decision;
  mutable decided_at : float;
  mutable tors : int list;
  mutable unread : int list;
}

type t = {
  mode : mode;
  revert_after : float option;
  jobs_tbl : (int, mjob) Hashtbl.t;
  mutable order : int list;  (* newest first *)
}

let create ?revert_after mode = { mode; revert_after; jobs_tbl = Hashtbl.create 64; order = [] }
let mode t = t.mode

(* Split a PolyReq into common task groups (single-variant composites)
   and the server-only / INC-only variant parts.  The INC variant of a
   composite is its first alternative containing a network group. *)
let split_variants (poly : Poly_req.t) =
  let by_comp = Hashtbl.create 8 in
  List.iter
    (fun (tg : Poly_req.task_group) ->
      let cur = try Hashtbl.find by_comp tg.comp_id with Not_found -> [] in
      Hashtbl.replace by_comp tg.comp_id (tg :: cur))
    poly.task_groups;
  let rt tg =
    let switch_demand =
      match tg.Poly_req.kind with
      | Poly_req.Server_tg -> None
      | Poly_req.Network_tg n -> Some (Prelude.Vec.add n.Poly_req.per_switch tg.Poly_req.demand)
    in
    { tg; remaining = tg.Poly_req.count; placed_on = []; switch_demand }
  in
  let common = ref [] and server_only = ref [] and inc_only = ref [] in
  Hashtbl.iter
    (fun _comp tgs ->
      let tgs = List.rev tgs in
      (* Group into variants by flavor. *)
      let variants = Hashtbl.create 4 in
      let keys = ref [] in
      List.iter
        (fun (tg : Poly_req.task_group) ->
          let key = Flavor.to_string tg.flavor in
          if not (Hashtbl.mem variants key) then keys := key :: !keys;
          Hashtbl.replace variants key
            (tg :: (try Hashtbl.find variants key with Not_found -> [])))
        tgs;
      let keys = List.rev !keys in
      match keys with
      | [ _single ] -> List.iter (fun tg -> common := rt tg :: !common) tgs
      | _ ->
          let variant_tgs k = List.rev (Hashtbl.find variants k) in
          let is_server_variant k =
            List.for_all (fun tg -> not (Poly_req.is_network tg)) (variant_tgs k)
          in
          let server_key = List.find_opt is_server_variant keys in
          let inc_key = List.find_opt (fun k -> not (is_server_variant k)) keys in
          (match server_key with
          | Some k -> List.iter (fun tg -> server_only := rt tg :: !server_only) (variant_tgs k)
          | None -> ());
          (match inc_key with
          | Some k -> List.iter (fun tg -> inc_only := rt tg :: !inc_only) (variant_tgs k)
          | None -> ()))
    by_comp;
  (List.rev !common, List.rev !server_only, List.rev !inc_only)

let max_duration tgs =
  List.fold_left (fun acc (rt : tg_rt) -> Float.max acc rt.tg.Poly_req.duration) 1.0 tgs

let submit t ~time poly =
  let common, server_only, inc_only = split_variants poly in
  let deadline = time +. (0.1 *. max_duration (if inc_only = [] then common else inc_only)) in
  let decision =
    if inc_only = [] then Server
    else
      match t.mode with
      | Concurrent -> Undecided
      | Timeout -> Inc (* only the INC variant is queued initially *)
  in
  let job =
    {
      poly;
      arrival = time;
      common;
      server_only;
      inc_only;
      deadline;
      decision;
      decided_at = time;
      tors = [];
      unread = [];
    }
  in
  Hashtbl.replace t.jobs_tbl poly.Poly_req.job_id job;
  t.order <- poly.Poly_req.job_id :: t.order

let jobs t = List.rev t.order |> List.filter_map (Hashtbl.find_opt t.jobs_tbl)

let active_tgs t job =
  let variant =
    match (job.decision, t.mode) with
    | Server, _ -> job.server_only
    | Inc, _ -> job.inc_only
    (* Both variants race; the INC one is tried first since its resources
       are the scarce ones — a server allocation would otherwise always
       win and withdraw the INC variant immediately. *)
    | Undecided, Concurrent -> job.inc_only @ job.server_only
    | Undecided, Timeout -> job.inc_only
  in
  List.filter (fun rt -> rt.remaining > 0) (job.common @ variant)

let unplaced_tgs rts =
  List.filter_map (fun rt -> if rt.remaining > 0 then Some rt.tg else None) rts

let inc_fully_placed job = List.for_all (fun rt -> rt.remaining = 0) job.inc_only

let tick t ~time =
  let cancelled = ref [] in
  Hashtbl.iter
    (fun _ job ->
      match (t.mode, job.decision) with
      | Timeout, Inc when job.inc_only <> [] && (not (inc_fully_placed job)) && time >= job.deadline
        ->
          (* Withdraw the INC variant, fall back to the server variant. *)
          cancelled := !cancelled @ unplaced_tgs job.inc_only;
          List.iter (fun rt -> rt.remaining <- 0) job.inc_only;
          job.decision <- Server;
          job.decided_at <- time
      | Concurrent, Inc -> (
          match t.revert_after with
          | Some delay
            when (not (inc_fully_placed job)) && time -. job.decided_at >= delay ->
              (* Starvation revert (Yarn++): give up on INC. *)
              cancelled := !cancelled @ unplaced_tgs job.inc_only;
              List.iter (fun rt -> rt.remaining <- 0) job.inc_only;
              job.decision <- Server;
              job.decided_at <- time
          | _ -> ())
      | _ -> ())
    t.jobs_tbl;
  !cancelled

let note_placement t ~time job (rt : tg_rt) ~machine =
  rt.remaining <- rt.remaining - 1;
  rt.placed_on <- machine :: rt.placed_on;
  job.unread <- machine :: job.unread;
  if job.decision = Undecided && t.mode = Concurrent then begin
    let in_list l = List.memq rt l in
    if in_list job.inc_only then begin
      job.decision <- Inc;
      job.decided_at <- time;
      let dropped = unplaced_tgs job.server_only in
      List.iter (fun r -> r.remaining <- 0) job.server_only;
      dropped
    end
    else if in_list job.server_only then begin
      job.decision <- Server;
      job.decided_at <- time;
      let dropped = unplaced_tgs job.inc_only in
      List.iter (fun r -> r.remaining <- 0) job.inc_only;
      dropped
    end
    else []
  end
  else []

let drop_tg t ~tg_id =
  Hashtbl.iter
    (fun _ job ->
      List.iter
        (fun (rt : tg_rt) ->
          if rt.tg.Poly_req.tg_id = tg_id then rt.remaining <- 0)
        (job.common @ job.server_only @ job.inc_only))
    t.jobs_tbl

let pending t =
  Hashtbl.fold
    (fun _ job acc ->
      acc
      || List.exists
           (fun rt -> rt.remaining > 0)
           (job.common @ job.server_only @ job.inc_only))
    t.jobs_tbl false

let cleanup t =
  let done_ids =
    Hashtbl.fold
      (fun id job acc ->
        let live rts = List.exists (fun rt -> rt.remaining > 0) rts in
        let variant_live =
          match job.decision with
          | Server -> live job.server_only
          | Inc -> live job.inc_only
          | Undecided -> live job.server_only || live job.inc_only
        in
        if live job.common || variant_live then acc else id :: acc)
      t.jobs_tbl []
  in
  List.iter (Hashtbl.remove t.jobs_tbl) done_ids;
  if done_ids <> [] then t.order <- List.filter (Hashtbl.mem t.jobs_tbl) t.order
