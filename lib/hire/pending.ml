type tg_state = {
  tg : Poly_req.task_group;
  mutable remaining : int;
  mutable placed_on : int list;
  flavor_key : string;
}

type job_state = {
  poly : Poly_req.t;
  mutable x_hat : Flavor.t;
  tg_states : tg_state array;
  mutable inc_flavor_locked : bool;
}

let of_poly (poly : Poly_req.t) =
  {
    poly;
    x_hat = Flavor.all_x poly.flavor_len;
    tg_states =
      Array.of_list
        (List.map
           (fun tg ->
             {
               tg;
               remaining = tg.Poly_req.count;
               placed_on = [];
               flavor_key = Flavor.to_string tg.Poly_req.flavor;
             })
           poly.task_groups);
    inc_flavor_locked = poly.flavor_len = 0;
  }

let status job ts = Flavor.status ~active:job.x_hat ts.tg.Poly_req.flavor

let filter_status job wanted =
  Array.to_list job.tg_states |> List.filter (fun ts -> status job ts = wanted)

let materialized job = filter_status job Flavor.Materialized
let undecided job = filter_status job Flavor.Undecided
let dropped job = filter_status job Flavor.Dropped

let decide job ts =
  let before = dropped job in
  job.x_hat <- Flavor.apply ~active:job.x_hat ts.tg.Poly_req.flavor;
  if undecided job = [] then job.inc_flavor_locked <- true;
  let after = dropped job in
  List.filter (fun t -> not (List.memq t before)) after

let force_server_fallback job =
  (* The server variant of each composite is the one whose task groups
     are all Server_tg; applying the flavor of any still-undecided server
     group resolves that composite to its fallback. *)
  let rec fix dropped_acc =
    let candidates =
      undecided job
      |> List.filter (fun ts -> not (Poly_req.is_network ts.tg))
      |> List.filter (fun ts -> Flavor.compatible job.x_hat ts.tg.Poly_req.flavor)
    in
    match candidates with
    | [] ->
        job.inc_flavor_locked <- true;
        dropped_acc
    | ts :: _ -> fix (dropped_acc @ decide job ts)
  in
  fix []

let place _job ts ~machine =
  if ts.remaining <= 0 then invalid_arg "Pending.place: no remaining tasks";
  ts.remaining <- ts.remaining - 1;
  ts.placed_on <- machine :: ts.placed_on

let has_pending_work job =
  Array.exists
    (fun ts -> ts.remaining > 0 && status job ts <> Flavor.Dropped)
    job.tg_states

let flavor_open job = undecided job <> []

let find_tg job tg_id = Array.find_opt (fun ts -> ts.tg.Poly_req.tg_id = tg_id) job.tg_states
