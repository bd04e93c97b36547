module Vec = Prelude.Vec
module Res = Topology.Resource

type feature = Sharp_asic | Of_accel | P4_14 | P4_16

let feature_to_string = function
  | Sharp_asic -> "sharp-asic"
  | Of_accel -> "of+accel"
  | P4_14 -> "p4-14"
  | P4_16 -> "p4-16"

type shape = Single | Single_tor | Chain | Tree | Spine_leaf

let shape_to_string = function
  | Single -> "single"
  | Single_tor -> "single-tor"
  | Chain -> "chain"
  | Tree -> "tree"
  | Spine_leaf -> "spine-leaf"

type inc_service = {
  name : string;
  feature : feature;
  shape : shape;
  switch_count : group_size:int -> int;
  per_switch : Vec.t;
  per_instance_range : group_size:int -> Vec.t * Vec.t;
  server_saving : float;
  duration_saving : float;
}

let draw_instance_demand svc rng ~group_size =
  let lo, hi = svc.per_instance_range ~group_size in
  Array.mapi (fun i l -> Prelude.Rng.float_in rng l (Float.max l hi.(i))) lo

type template = { tpl_name : string; inc_impls : string list; has_server_impl : bool }

type t = {
  service_tbl : (string, inc_service) Hashtbl.t;
  template_tbl : (string, template) Hashtbl.t;
  mutable service_order : string list;  (* registration order, newest first *)
  mutable template_order : string list;
}

let add_service t svc =
  if not (Hashtbl.mem t.service_tbl svc.name) then
    t.service_order <- svc.name :: t.service_order;
  Hashtbl.replace t.service_tbl svc.name svc

let add_template t tpl =
  if not (Hashtbl.mem t.template_tbl tpl.tpl_name) then
    t.template_order <- tpl.tpl_name :: t.template_order;
  Hashtbl.replace t.template_tbl tpl.tpl_name tpl

let find_service t name = Hashtbl.find_opt t.service_tbl name
let service_exn t name = Hashtbl.find t.service_tbl name
let find_template t name = Hashtbl.find_opt t.template_tbl name

let services t = List.rev_map (Hashtbl.find t.service_tbl) t.service_order
let service_names t = Array.of_list (List.map (fun s -> s.name) (services t))
let templates t = List.rev_map (Hashtbl.find t.template_tbl) t.template_order

let template_of_service t service =
  templates t
  |> List.find_opt (fun tpl -> List.mem service tpl.inc_impls)
  |> Option.map (fun tpl -> tpl.tpl_name)

let custom_p4 ~name ~version ~switches ~recirc ~stages ~sram_mb ?(shared_stages = 0.0) () =
  if switches <= 0 then invalid_arg "Comp_store.custom_p4: switches must be positive";
  {
    name;
    feature = (match version with `P4_14 -> P4_14 | `P4_16 -> P4_16);
    shape = Single;
    switch_count = (fun ~group_size:_ -> switches);
    per_switch = Vec.of_list [ 0.0; shared_stages; 0.0 ];
    per_instance_range =
      (fun ~group_size:_ ->
        let v = Vec.of_list [ recirc; stages; sram_mb ] in
        (v, Vec.copy v));
    server_saving = 0.05;
    duration_saving = 0.05;
  }

let register_custom_p4 t svc =
  add_service t svc;
  let tpl =
    match Hashtbl.find_opt t.template_tbl "custom-p4" with
    | Some tpl -> tpl
    | None -> { tpl_name = "custom-p4"; inc_impls = []; has_server_impl = true }
  in
  if not (List.mem svc.name tpl.inc_impls) then
    add_template t { tpl with inc_impls = tpl.inc_impls @ [ svc.name ] }

(* ------------------------------------------------------------------ *)
(* The Tab. 3 catalogue                                               *)
(* ------------------------------------------------------------------ *)

let log2_ceil n = if n <= 1 then 1 else int_of_float (ceil (log (float_of_int n) /. log 2.0))

(* Switch demand vectors are [recirc%; stages; sram MB]. *)
let vec3 recirc stages sram = Vec.of_list [ recirc; stages; sram ]

let fixed_range lo hi = fun ~group_size:_ -> (lo, hi)

let sharp =
  {
    name = "sharp";
    feature = Sharp_asic;
    shape = Tree;
    switch_count = (fun ~group_size -> max 1 (log2_ceil group_size));
    per_switch = vec3 0.0 0.0 0.0;
    per_instance_range = fixed_range (vec3 0.0 0.0 1.0) (vec3 0.0 0.0 8.0);
    server_saving = 0.1;
    duration_saving = 0.1;
  }

let incbricks =
  {
    name = "incbricks";
    feature = Of_accel;
    shape = Single;
    switch_count = (fun ~group_size -> max 3 (log2_ceil group_size));
    per_switch = vec3 0.0 0.0 0.0;
    per_instance_range = fixed_range (vec3 0.0 4.0 3.0) (vec3 40.0 8.0 12.0);
    server_saving = 0.08;
    duration_saving = 0.08;
  }

let netcache =
  {
    name = "netcache";
    feature = P4_14;
    shape = Single_tor;
    switch_count = (fun ~group_size -> max 3 (log2_ceil group_size));
    per_switch = vec3 0.0 8.0 0.0;
    per_instance_range = fixed_range (vec3 0.0 0.0 6.0) (vec3 10.0 8.0 12.0);
    server_saving = 0.1;
    duration_saving = 0.1;
  }

let distcache =
  {
    name = "distcache";
    feature = P4_14;
    shape = Spine_leaf;
    switch_count = (fun ~group_size -> max 3 (log2_ceil group_size));
    per_switch = vec3 0.0 8.0 0.0;
    per_instance_range = fixed_range (vec3 0.0 0.0 6.0) (vec3 10.0 8.0 12.0);
    server_saving = 0.1;
    duration_saving = 0.1;
  }

let netchain =
  {
    name = "netchain";
    feature = P4_14;
    shape = Chain;
    switch_count = (fun ~group_size -> max 3 (int_of_float (ceil (3.0 *. float_of_int group_size /. 1000.0))));
    per_switch = vec3 0.0 8.0 0.0;
    per_instance_range = fixed_range (vec3 0.0 0.0 6.0) (vec3 10.0 8.0 12.0);
    server_saving = 0.1;
    duration_saving = 0.1;
  }

let harmonia =
  {
    name = "harmonia";
    feature = P4_14;
    shape = Single;
    switch_count = (fun ~group_size -> max 1 ((group_size + 8999) / 9000));
    per_switch = vec3 0.0 3.0 0.0;
    per_instance_range = fixed_range (vec3 0.0 0.0 0.75) (vec3 0.0 3.0 2.0);
    server_saving = 0.06;
    duration_saving = 0.06;
  }

let hovercraft =
  {
    name = "hovercraft";
    feature = P4_14;
    shape = Single;
    switch_count = (fun ~group_size -> max 1 ((group_size + 8999) / 9000));
    per_switch = vec3 0.0 18.0 0.0;
    per_instance_range = fixed_range (vec3 0.0 0.0 0.0) (vec3 10.0 18.0 0.125);
    server_saving = 0.06;
    duration_saving = 0.06;
  }

let r2p2 =
  {
    name = "r2p2";
    feature = P4_14;
    shape = Single;
    switch_count = (fun ~group_size -> max 1 ((group_size + 8999) / 9000));
    per_switch = vec3 0.0 0.0 0.0;
    per_instance_range =
      (fun ~group_size ->
        (* Stage usage scales with the served group, capped at the
           pipeline depth (Tab. 3 gives [0, |G|]). *)
        let stage_cap = Float.min (float_of_int group_size) 48.0 in
        (vec3 0.0 0.0 0.001, vec3 30.0 stage_cap 0.064));
    server_saving = 0.05;
    duration_saving = 0.05;
  }

let default_services = [ sharp; incbricks; netcache; distcache; netchain; harmonia; hovercraft; r2p2 ]

let default_templates =
  [
    { tpl_name = "server"; inc_impls = []; has_server_impl = true };
    { tpl_name = "aggregator"; inc_impls = [ "sharp" ]; has_server_impl = true };
    { tpl_name = "cache"; inc_impls = [ "netcache"; "distcache"; "incbricks" ]; has_server_impl = true };
    {
      tpl_name = "coordinator";
      inc_impls = [ "netchain"; "harmonia"; "hovercraft" ];
      has_server_impl = true;
    };
    { tpl_name = "load-balancer"; inc_impls = [ "r2p2" ]; has_server_impl = true };
    { tpl_name = "custom-p4"; inc_impls = []; has_server_impl = true };
  ]

let default () =
  let t =
    {
      service_tbl = Hashtbl.create 16;
      template_tbl = Hashtbl.create 16;
      service_order = [];
      template_order = [];
    }
  in
  List.iter (add_service t) default_services;
  List.iter (add_template t) default_templates;
  (* Dimension sanity: every vector must use the switch dimensions. *)
  List.iter
    (fun s ->
      assert (Vec.dim s.per_switch = Res.Switch.count);
      let lo, hi = s.per_instance_range ~group_size:10 in
      assert (Vec.dim lo = Res.Switch.count && Vec.dim hi = Res.Switch.count))
    default_services;
  t
