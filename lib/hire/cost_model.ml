module Vec = Prelude.Vec
module Fat_tree = Topology.Fat_tree

type params = {
  cost_scale : int;
  pref_lower : float;
  pref_upper : float;
  w_threshold : float;
  gamma : int;
  xi : int;
  max_shortcuts : int;
  max_flavor_decisions : int;
  max_queue_tgs : int;
  locality_aware : bool;
  sharing_aware : bool;
  server_fallback_penalty : float;
}

let default_params =
  {
    cost_scale = 1000;
    pref_lower = 0.5;
    pref_upper = 2.0;
    w_threshold = 0.5;
    gamma = 64;
    xi = 2;
    max_shortcuts = 50;
    max_flavor_decisions = 250;
    max_queue_tgs = 800;
    locality_aware = true;
    sharing_aware = true;
    server_fallback_penalty = 3.5;
  }

(* [Float.max 0.0 x] and [Float.max 0.0 (Float.min 1.0 x)] spelt out,
   NaN passing through and -0.0 becoming 0.0 exactly as there, so that
   they inline and the shortcut costs below keep their floats unboxed. *)
let[@inline] nonneg x = if x > 0.0 || Float.is_nan x then x else 0.0
let[@inline] clamp01 x = nonneg (if x > 1.0 then 1.0 else x)

(* The flattened, penalized and scaled cost of a σ⃗ whose average is
   [avg] — the last step of every edge cost. *)
let[@inline] scaled ~avg ~penalty params =
  let v = (clamp01 avg +. nonneg penalty) *. float_of_int params.cost_scale in
  int_of_float (Float.round v)

let flatten components ~penalty params =
  let n = List.length components in
  let avg = if n = 0 then 0.0 else List.fold_left ( +. ) 0.0 components /. float_of_int n in
  scaled ~avg ~penalty params

(* ------------------------------------------------------------------ *)
(* Φ functions                                                        *)
(* ------------------------------------------------------------------ *)

let phi_floor_p ~active ~max_possible =
  if max_possible <= 0 then 0.0 else clamp01 (float_of_int active /. float_of_int max_possible)

let phi_tor topo ~switch =
  (* Hops to the closest server: ToR 1, agg 2, core 3; normalized so a
     ToR costs 0 and a core costs 1. *)
  let hops =
    match Fat_tree.kind topo switch with
    | Fat_tree.Tor -> 1
    | Fat_tree.Agg -> 2
    | Fat_tree.Core -> 3
    | Fat_tree.Server -> invalid_arg "Cost_model.phi_tor: not a switch"
  in
  float_of_int (hops - 1) /. 2.0

let phi_loc ~related_placed ~upsilon ~gamma_norm ~server_weight =
  if not related_placed then 0.5
  else begin
    let ws = clamp01 server_weight in
    clamp01 ((ws *. upsilon) +. ((1.0 -. ws) *. (1.0 -. gamma_norm)))
  end

let phi_new ~service_active ~n_active ~max_possible =
  if service_active then 0.0
  else begin
    let delta = if max_possible <= 0 then 0.0 else float_of_int n_active /. float_of_int max_possible in
    1.0 /. (delta +. 1.0)
  end

let phi_pref ~waiting params =
  if waiting >= params.pref_upper then 0.0
  else if waiting <= params.pref_lower then 3.0
  else begin
    let ratio = (waiting -. params.pref_lower) /. (params.pref_upper -. params.pref_lower) in
    3.0 *. -.tanh ((ratio *. 3.0) -. 3.0)
  end

let phi_prio = function Workload.Job.Service -> 0.0 | Workload.Job.Batch -> 1.0

let phi_delay ~waiting ~max_waiting ~placed ~total =
  let frac = if total <= 0 then 0.0 else clamp01 (float_of_int placed /. float_of_int total) in
  let wr = if max_waiting <= 0.0 then 0.0 else clamp01 (waiting /. max_waiting) in
  clamp01 (wr *. exp frac /. exp 1.0)

let phi_w ~waiting params =
  if waiting >= params.w_threshold then 1.0
  else begin
    let ratio = clamp01 (waiting /. params.w_threshold) in
    (0.5 *. cos ((ratio -. 1.0) *. Float.pi)) +. 0.5
  end

let phi_xhat ~estimate ~max_estimate =
  if max_estimate <= 0.0 then 0.0 else clamp01 (estimate /. max_estimate)

(* ------------------------------------------------------------------ *)
(* Edge assembly                                                      *)
(* ------------------------------------------------------------------ *)

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Cost_model.%s: dimension mismatch" name)

(* The M→K costs run once per machine of every cold build, so they read
   the ledger in place instead of building a utilization vector.  Each
   performs the float operations of the list form, in its order: the
   used fraction u = clamp01 ((c - a) / c) (0 where c <= 0) of
   [Topology.Resource.utilization], its mean and population stddev as
   in [Prelude.Stats], the balance clamp01 (1 - stddev), then a
   left-to-right sum of the σ⃗ components divided by their count and
   [scaled].  test/test_hire_model.ml checks both bit for bit against
   that list form. *)

let[@inline] used_frac ~capacity ~available i =
  let c = capacity.(i) in
  if c <= 0.0 then 0.0 else clamp01 ((c -. available.(i)) /. c)

(* Mean of u over the dimensions. *)
let[@inline] used_avg ~capacity ~available n =
  if n = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. used_frac ~capacity ~available i
    done;
    !sum /. float_of_int n
  end

(* Inverted balance: clamp01 (1 - stddev u), u's mean being [m]. *)
let[@inline] used_balance ~capacity ~available ~m n =
  let dev =
    if n < 2 then 0.0
    else begin
      let ss = ref 0.0 in
      for i = 0 to n - 1 do
        let x = used_frac ~capacity ~available i in
        ss := !ss +. ((x -. m) *. (x -. m))
      done;
      sqrt (!ss /. float_of_int n)
    end
  in
  clamp01 (1.0 -. dev)

let ms_to_k ~capacity ~available params =
  check_dims "ms_to_k" capacity available;
  let n = Array.length capacity in
  let m = used_avg ~capacity ~available n in
  let bal = used_balance ~capacity ~available ~m n in
  scaled ~avg:((0.0 +. m +. bal) /. 2.0) ~penalty:0.0 params

let mn_to_k ~capacity ~available ~phi_tor ~phi_floor params =
  check_dims "mn_to_k" capacity available;
  let n = Array.length capacity in
  let m = used_avg ~capacity ~available n in
  let bal = used_balance ~capacity ~available ~m n in
  scaled ~avg:((0.0 +. m +. bal +. phi_tor +. phi_floor) /. 4.0) ~penalty:0.0 params

(* The shortcut costs run once per candidate machine per task group, so
   they are loops over the dimensions instead of [flatten] over fresh
   vectors.  Each performs the float operations of the list form, in
   its order: the ratio r = clamp01 (d ⊘ a) (0 where |a| < [Vec.eps]),
   its mean and population stddev as in [Prelude.Stats], then a
   left-to-right sum of the σ⃗ components divided by their count and
   [scaled].  test/test_hire_model.ml checks both bit for bit against
   that list form. *)

let[@inline] fit_ratio ~demand ~available i =
  let a = available.(i) in
  clamp01 (if Float.abs a < Vec.eps then 0.0 else demand.(i) /. a)

(* Mean of r over the dimensions. *)
let[@inline] fit_avg ~demand ~available n =
  if n = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. fit_ratio ~demand ~available i
    done;
    !sum /. float_of_int n
  end

(* Clamped population stddev of r around its mean [m]. *)
let[@inline] fit_dev ~demand ~available ~m n =
  if n < 2 then 0.0
  else begin
    let ss = ref 0.0 in
    for i = 0 to n - 1 do
      let x = fit_ratio ~demand ~available i in
      ss := !ss +. ((x -. m) *. (x -. m))
    done;
    clamp01 (sqrt (!ss /. float_of_int n))
  end

let gs_shortcut ~demand ~available ~phi_loc ~phi_prio params =
  check_dims "gs_shortcut" demand available;
  let n = Array.length demand in
  let m = fit_avg ~demand ~available n in
  let dev = fit_dev ~demand ~available ~m n in
  let sum = 0.0 +. m +. dev +. phi_loc +. 1.0 +. phi_prio in
  scaled ~avg:(sum /. 5.0) ~penalty:0.0 params

let gn_shortcut ~demand ~available ~capacity ~phi_loc ~phi_new ~phi_prio params =
  check_dims "gn_shortcut" demand available;
  check_dims "gn_shortcut" available capacity;
  let n = Array.length demand in
  let m = fit_avg ~demand ~available n in
  let dev = fit_dev ~demand ~available ~m n in
  (* Switches are the scarce resource: unlike servers (load-balanced),
     INC placements are packed best-fit — the cost grows with the
     head-room that would remain, fighting SRAM fragmentation. *)
  let free_after =
    if n = 0 then 0.0
    else begin
      let sum = ref 0.0 in
      for i = 0 to n - 1 do
        let remaining = nonneg (available.(i) -. demand.(i)) in
        let c = capacity.(i) in
        sum := !sum +. (if Float.abs c < Vec.eps then 0.0 else remaining /. c)
      done;
      !sum /. float_of_int n
    end
  in
  let sum = 0.0 +. m +. dev +. free_after +. phi_loc +. phi_new +. phi_prio in
  scaled ~avg:(sum /. 6.0) ~penalty:0.0 params

let g_to_p ~phi_delay params = flatten [ phi_delay ] ~penalty:5.0 params

let f_to_g ~phi_xhat ~phi_pref ?(fallback = false) params =
  let penalty =
    phi_pref +. if fallback then params.server_fallback_penalty else 0.0
  in
  flatten [ phi_xhat ] ~penalty params
let f_to_p ~phi_w params = flatten [ phi_w ] ~penalty:3.0 params
let s_to_f params = flatten [] ~penalty:1.0 params
