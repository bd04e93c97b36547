module Vec = Prelude.Vec
module Int_tbl = Prelude.Int_tbl

type violation =
  | Flow_violation of Flow.Verify.violation
  | Machine_overuse of { machine : int }
  | Group_overplace of { tg_id : int; placed : int; remaining : int }
  | Server_overcommit of { server : int; tg_id : int }
  | Switch_overcommit of { switch : int; tg_id : int; service : string }

let pp_violation ppf = function
  | Flow_violation v -> Format.fprintf ppf "invalid flow: %a" Flow.Verify.pp_violation v
  | Machine_overuse { machine } ->
      Format.fprintf ppf "machine %d handed more than one task this round" machine
  | Group_overplace { tg_id; placed; remaining } ->
      Format.fprintf ppf "task group %d given %d tasks with only %d remaining" tg_id
        placed remaining
  | Server_overcommit { server; tg_id } ->
      Format.fprintf ppf "task group %d does not fit on server %d" tg_id server
  | Switch_overcommit { switch; tg_id; service } ->
      Format.fprintf ppf
        "service %s (task group %d) rejected by the sharing ledger of switch %d"
        service tg_id switch

let check_flow g =
  match Flow.Verify.check g with
  | Ok () -> Ok ()
  | Error v -> Error (Flow_violation v)

let check_placements (view : View.t) ~(params : Cost_model.params) ~placements =
  let exception Bad of violation in
  let sharing = view.View.sharing in
  (* Each machine may take at most one new task per round, so one
     placement can be checked against the live ledgers in isolation. *)
  let machines = Int_tbl.create 16 in
  let per_group = Int_tbl.create 16 in
  try
    List.iter
      (fun ((ts : Pending.tg_state), machine) ->
        if Int_tbl.mem machines machine then raise (Bad (Machine_overuse { machine }));
        Int_tbl.replace machines machine ();
        let tg = ts.Pending.tg in
        let tg_id = tg.Poly_req.tg_id in
        let placed = 1 + (Int_tbl.find_opt per_group tg_id |> Option.value ~default:0) in
        Int_tbl.replace per_group tg_id placed;
        if placed > ts.Pending.remaining then
          raise
            (Bad (Group_overplace { tg_id; placed; remaining = ts.Pending.remaining }));
        match tg.Poly_req.kind with
        | Poly_req.Server_tg ->
            if
              (not (view.View.alive machine))
              || not
                   (Vec.fits ~demand:tg.Poly_req.demand
                      ~available:(view.View.server_available machine))
            then raise (Bad (Server_overcommit { server = machine; tg_id }))
        | Poly_req.Network_tg ninfo ->
            let service = ninfo.Poly_req.service in
            let per_switch, per_instance =
              if params.Cost_model.sharing_aware then
                (ninfo.Poly_req.per_switch, tg.Poly_req.demand)
              else
                ( Vec.zero (Vec.dim tg.Poly_req.demand),
                  Vec.add ninfo.Poly_req.per_switch tg.Poly_req.demand )
            in
            if
              not
                (Sharing.can_place sharing ~switch:machine ~service ~per_switch
                   ~per_instance)
            then raise (Bad (Switch_overcommit { switch = machine; tg_id; service })))
      placements;
    Ok ()
  with Bad v -> Error v
