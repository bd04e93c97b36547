module Poly_req = Hire.Poly_req
module Vec = Prelude.Vec

let think_per_alloc = 0.002
let feasible_fraction = 0.05
let sample_fraction = 0.10

(* The K8 default scoring pair: prefer machines that stay least
   requested and most balanced after the allocation.  With f the free
   fraction left per dimension (0 where the capacity is below
   [Vec.eps]), the score is (mean f + 1 - stddev (1 - f)) / 2.  The
   loops perform the float operations of Vec.sub, Vec.div,
   Stats.mean_arr and Stats.stddev_arr in their order, so the score is
   bit for bit theirs, without their four arrays. *)
let score ~capacity ~available ~demand =
  let n = Array.length available in
  if Array.length demand <> n || Array.length capacity <> n then
    invalid_arg "K8_pp.score: dimension mismatch";
  let sum_f = ref 0.0 and sum_u = ref 0.0 in
  for i = 0 to n - 1 do
    let c = capacity.(i) in
    let f = if Float.abs c < Vec.eps then 0.0 else (available.(i) -. demand.(i)) /. c in
    sum_f := !sum_f +. f;
    sum_u := !sum_u +. (1.0 -. f)
  done;
  let mean_f = if n = 0 then 0.0 else !sum_f /. float_of_int n in
  let stddev_u =
    if n < 2 then 0.0
    else begin
      let m = !sum_u /. float_of_int n in
      let ss = ref 0.0 in
      for i = 0 to n - 1 do
        let c = capacity.(i) in
        let f = if Float.abs c < Vec.eps then 0.0 else (available.(i) -. demand.(i)) /. c in
        let u = 1.0 -. f in
        ss := !ss +. ((u -. m) *. (u -. m))
      done;
      sqrt (!ss /. float_of_int n)
    end
  in
  (mean_f +. (1.0 -. stddev_u)) /. 2.0

let create ~mode cluster =
  let modes = Modes.create mode in
  let view = Sim.Cluster.view cluster in
  let sharing = view.sharing in
  let cursor_server = ref 0 and cursor_switch = ref 0 in
  let pick ~time:_ (_job : Modes.mjob) (rt : Modes.tg_rt) =
    let pool = Policy_util.machine_pool cluster rt in
    let n = Array.length pool in
    if n = 0 then None
    else begin
      let cursor = if Poly_req.is_network rt.tg then cursor_switch else cursor_server in
      let want = max 1 (int_of_float (feasible_fraction *. float_of_int n)) in
      let sample_budget = max want (int_of_float (sample_fraction *. float_of_int n)) in
      let feasible m =
        if Poly_req.is_network rt.tg then Policy_util.switch_feasible cluster ~switch:m rt
        else Policy_util.server_fits view ~server:m ~demand:rt.tg.Poly_req.demand
      in
      let candidates = ref [] and n_candidates = ref 0 in
      let scanned = ref 0 in
      (* Resume the round-robin scan where the previous request stopped;
         keep scanning past the sample budget only while empty-handed. *)
      while
        !scanned < n
        && !n_candidates < want
        && (!scanned < sample_budget || !n_candidates = 0)
      do
        let m = pool.((!cursor + !scanned) mod n) in
        if feasible m then begin
          candidates := m :: !candidates;
          incr n_candidates
        end;
        incr scanned
      done;
      cursor := (!cursor + !scanned) mod n;
      match !candidates with
      | [] -> None
      | cs ->
          let score_of =
            match rt.switch_demand with
            | Some demand ->
                let capacity = Hire.Sharing.live_capacity sharing in
                fun m -> score ~capacity ~available:(Hire.Sharing.live_available sharing m) ~demand
            | None ->
                let demand = rt.tg.Poly_req.demand in
                let capacity = view.server_capacity in
                fun m -> score ~capacity ~available:(view.server_available m) ~demand
          in
          let best =
            List.fold_left
              (fun acc m ->
                let s = score_of m in
                match acc with
                | Some (_, sb) when sb >= s -> acc
                | _ -> Some (m, s))
              None cs
          in
          Option.map fst best
    end
  in
  Queue_base.make
    ~name:("k8-" ^ Modes.mode_to_string mode)
    ~think_per_alloc ~pick cluster modes
