module Poly_req = Hire.Poly_req
module Vec = Prelude.Vec

let think_per_alloc = 0.002
let feasible_fraction = 0.05
let sample_fraction = 0.10

(* The K8 default scoring pair: prefer machines that stay least
   requested and most balanced after the allocation. *)
let score ~capacity ~available ~demand =
  let after = Vec.sub available demand in
  let free_frac = Vec.div after capacity in
  let util_after = Array.map (fun f -> 1.0 -. f) free_frac in
  (Vec.avg free_frac +. (1.0 -. Vec.stddev util_after)) /. 2.0

let create ~mode cluster =
  let modes = Modes.create mode in
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
        else Policy_util.server_fits cluster ~server:m ~demand:rt.tg.Poly_req.demand
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
          let score_of m =
            if Poly_req.is_network rt.tg then begin
              let _, _, demand = Policy_util.unshared_parts rt.tg in
              score
                ~capacity:(Hire.Sharing.capacity (Sim.Cluster.sharing cluster))
                ~available:(Hire.Sharing.available (Sim.Cluster.sharing cluster) m)
                ~demand
            end
            else
              score
                ~capacity:(Sim.Cluster.server_capacity cluster)
                ~available:(Sim.Cluster.server_available cluster m)
                ~demand:rt.tg.Poly_req.demand
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
