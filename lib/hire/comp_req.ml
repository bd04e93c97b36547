type server_spec = { instances : int; cpu : float; mem : float; duration : float }

type composite = {
  comp_id : string;
  template : string;
  base : server_spec;
  inc_alternatives : string list;
}

type t = {
  priority : Workload.Job.priority;
  composites : composite list;
  connections : (string * string) list;
}

let composite t id = List.find_opt (fun c -> c.comp_id = id) t.composites

let validate store t =
  let ( let* ) r f = Result.bind r f in
  let* () =
    let ids = List.map (fun c -> c.comp_id) t.composites in
    if List.length (List.sort_uniq String.compare ids) <> List.length ids then
      Error "duplicate composite ids"
    else Ok ()
  in
  let* () = if t.composites = [] then Error "empty CompReq" else Ok () in
  let check_composite c =
    match Comp_store.find_template store c.template with
    | None -> Error (Printf.sprintf "unknown template %S" c.template)
    | Some tpl ->
        let* () =
          if c.base.instances <= 0 || c.base.cpu <= 0.0 || c.base.mem <= 0.0
             || c.base.duration <= 0.0
          then Error (Printf.sprintf "composite %S: non-positive server spec" c.comp_id)
          else Ok ()
        in
        List.fold_left
          (fun acc svc ->
            let* () = acc in
            if Comp_store.find_service store svc = None then
              Error (Printf.sprintf "composite %S: unknown INC service %S" c.comp_id svc)
            else if not (List.mem svc tpl.Comp_store.inc_impls) then
              Error
                (Printf.sprintf "composite %S: service %S not an implementation of template %S"
                   c.comp_id svc c.template)
            else Ok ())
          (Ok ()) c.inc_alternatives
  in
  let* () = List.fold_left (fun acc c -> Result.bind acc (fun () -> check_composite c)) (Ok ()) t.composites in
  List.fold_left
    (fun acc (a, b) ->
      let* () = acc in
      if composite t a = None then Error (Printf.sprintf "connection references unknown composite %S" a)
      else if composite t b = None then
        Error (Printf.sprintf "connection references unknown composite %S" b)
      else if a = b then Error "self-connection"
      else Ok ())
    (Ok ()) t.connections

let of_job (job : Workload.Job.t) =
  let composites =
    List.map
      (fun (g : Workload.Job.task_group) ->
        {
          comp_id = Printf.sprintf "c%d" g.tg_index;
          template = "server";
          base = { instances = g.count; cpu = g.cpu; mem = g.mem; duration = g.duration };
          inc_alternatives = [];
        })
      job.groups
  in
  let connections =
    (* Chain the composites: group i talks to group i+1. *)
    let rec chain = function
      | a :: (b :: _ as rest) -> (a.comp_id, b.comp_id) :: chain rest
      | _ -> []
    in
    chain composites
  in
  { priority = job.priority; composites; connections }

let pp fmt t =
  Format.fprintf fmt "CompReq (%a): " Workload.Job.pp_priority t.priority;
  List.iter
    (fun c ->
      Format.fprintf fmt "%s[%s x%d%s] " c.comp_id c.template c.base.instances
        (match c.inc_alternatives with
        | [] -> ""
        | alts -> " | " ^ String.concat "/" alts))
    t.composites
