(** The composite-template store (CompStore, §4.1).

    The CompStore is HIRE's catalogue of functionality templates and the
    INC services that can implement them, together with their deployment
    profiles: how many switches an instance needs as a function of the
    served group size, the overlay shape, the switch-feature requirement,
    and the per-switch (sharable) versus per-instance resource demands.

    The default store ships the paper's evaluation catalogue (Tab. 3):
    SHArP, IncBricks, NetCache, DistCache, NetChain, Harmonia,
    HovercRaft, and R2P2, with demand ranges as reported there.  Users
    can register additional services under the custom-P4 template
    ({!register_custom_p4}), mirroring the paper's extensibility story
    (§4.5). *)

module Vec = Prelude.Vec

(** Switch capability classes named by the paper's Tab. 3. *)
type feature = Sharp_asic | Of_accel | P4_14 | P4_16

val feature_to_string : feature -> string

(** Shape of the switch overlay a service deploys (Tab. 3 "PolyReq"
    column).  [Spine_leaf] services are transformed into two connected
    network task groups (cf. Fig. 4c). *)
type shape = Single | Single_tor | Chain | Tree | Spine_leaf

val shape_to_string : shape -> string

type inc_service = {
  name : string;
  feature : feature;
  shape : shape;
  switch_count : group_size:int -> int;
      (** switches needed to serve a group of the given size *)
  per_switch : Vec.t;
      (** demand charged once per (service, switch) — the sharable
          registration part, before the "|" in Tab. 3 *)
  per_instance_range : group_size:int -> Vec.t * Vec.t;
      (** per-instance demand bounds (lo, hi), after the "|" in Tab. 3 *)
  server_saving : float;
      (** fraction of the composite's servers saved when INC serves it
          (the paper caps savings at 10%) *)
  duration_saving : float;  (** likewise for the composite's runtime *)
}

(** [draw_instance_demand svc rng ~group_size] draws a concrete
    per-instance demand uniformly within the service's range. *)
val draw_instance_demand : inc_service -> Prelude.Rng.t -> group_size:int -> Vec.t

type template = {
  tpl_name : string;
  inc_impls : string list;  (** names of candidate INC services *)
  has_server_impl : bool;
}

type t

(** The paper's catalogue: 8 INC services (Tab. 3) and the 6 composite
    templates of Fig. 4a. *)
val default : unit -> t

val find_service : t -> string -> inc_service option

(** @raise Not_found on unknown service. *)
val service_exn : t -> string -> inc_service

val find_template : t -> string -> template option
val services : t -> inc_service list
val service_names : t -> string array
val templates : t -> template list

(** The first registered template listing the service as an
    implementation. *)
val template_of_service : t -> string -> string option

(** Custom-P4 services (Fig. 4a's "Custom P4" template with P4_14 and
    P4_16 implementations): generic tenant-supplied dataplane programs
    whose demands are given explicitly rather than profiled.  Not part of
    {!default} — register with {!register_custom_p4} when an experiment
    wants them selectable. *)
val custom_p4 :
  name:string ->
  version:[ `P4_14 | `P4_16 ] ->
  switches:int ->
  recirc:float ->
  stages:float ->
  sram_mb:float ->
  ?shared_stages:float ->
  unit ->
  inc_service

(** Adds the service and lists it under the "custom-p4" template. *)
val register_custom_p4 : t -> inc_service -> unit
