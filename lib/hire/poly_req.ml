module Vec = Prelude.Vec

type network_info = {
  service : string;
  shape : Comp_store.shape;
  per_switch : Vec.t;
  role : string;
}

type kind = Server_tg | Network_tg of network_info

type task_group = {
  tg_id : int;
  job_id : int;
  comp_id : string;
  kind : kind;
  count : int;
  demand : Vec.t;
  duration : float;
  flavor : Flavor.t;
  connected : int list;
}

type t = {
  job_id : int;
  priority : Workload.Job.priority;
  arrival : float;
  flavor_len : int;
  task_groups : task_group list;
}

let is_network tg = match tg.kind with Network_tg _ -> true | Server_tg -> false
let service_of tg = match tg.kind with Network_tg n -> Some n.service | Server_tg -> None
let network_groups t = List.filter is_network t.task_groups
let has_inc t = network_groups t <> []
let total_tasks t = List.fold_left (fun acc tg -> acc + tg.count) 0 t.task_groups

let pp fmt t =
  Format.fprintf fmt "PolyReq job=%d @%.1fs %a flavor-bits=%d@." t.job_id t.arrival
    Workload.Job.pp_priority t.priority t.flavor_len;
  List.iter
    (fun tg ->
      Format.fprintf fmt "  tg%d %s %s x%d demand=%a flavor=%a@." tg.tg_id tg.comp_id
        (match tg.kind with
        | Server_tg -> "server"
        | Network_tg n -> Printf.sprintf "inc:%s%s" n.service (if n.role = "" then "" else ":" ^ n.role))
        tg.count Vec.pp tg.demand Flavor.pp tg.flavor)
    t.task_groups
