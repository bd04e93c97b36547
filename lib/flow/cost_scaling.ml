(* Goldberg–Tarjan cost scaling.  Invariant: the flow is ε-optimal for
   the current node prices p — every residual arc (v,w) has reduced cost
   c(v,w) + p(v) - p(w) >= -ε.  Costs are multiplied by (n+1) up front so
   that 1-optimality at the end implies true optimality. *)

module Clock = Prelude.Clock

type result = {
  shipped : int;
  unshipped : int;
  total_cost : int;
  phases : int;
  pushes : int;
  relabels : int;
  elapsed_s : float;
  degraded : bool;
  profile : Obs.Solver_profile.t;
}

(* Raised internally when the budget fires mid-phase; the handler resets
   the graph's flow (a mid-run pseudoflow is not salvageable). *)
exception Exhausted of Budget.reason

let solve ?(alpha = 8) ?budget ?ctl g =
  if alpha < 2 then invalid_arg "Cost_scaling.solve: alpha must be >= 2";
  let t0 = Clock.now () in
  let bstate = Budget.for_solve ?budget ?ctl () in
  let check_budget () =
    match bstate with
    | None -> ()
    | Some st -> (
        match Budget.check st with None -> () | Some reason -> raise (Exhausted reason))
  in
  let spend_step () = match bstate with Some st -> Budget.spend st 1 | None -> () in
  let instrument = Obs.enabled () in
  let t_saturate = ref 0.0 and t_discharge = ref 0.0 in
  let staged acc f =
    if instrument then begin
      let s0 = Clock.now () in
      let r = f () in
      acc := !acc +. (Clock.now () -. s0);
      r
    end
    else f ()
  in
  let n0 = Graph.node_count g in
  if n0 = 0 then
    { shipped = 0; unshipped = 0; total_cost = 0; phases = 0; pushes = 0; relabels = 0;
      elapsed_s = 0.0; degraded = false;
      profile = Obs.Solver_profile.zero ~solver:"cost-scaling" }
  else begin
    (* Find the cost bound before adding artificial arcs. *)
    let max_abs_cost = ref 1 in
    Graph.iter_arcs g (fun a ->
        let c = abs (Graph.cost g a) in
        if c > !max_abs_cost then max_abs_cost := c);
    let total_supply = Graph.total_positive_supply g in
    (* Artificial feasibility arcs through one virtual node. *)
    let big = (!max_abs_cost * (n0 + 2)) + 1 in
    let virtual_node = Graph.add_node g in
    let art_out = ref [] (* supply → virtual *) and art_in = ref [] (* virtual → demand *) in
    for v = 0 to n0 - 1 do
      let s = Graph.supply g v in
      if s > 0 then
        art_out := Graph.add_arc g ~src:v ~dst:virtual_node ~cap:s ~cost:big :: !art_out
      else if s < 0 then
        art_in := Graph.add_arc g ~src:virtual_node ~dst:v ~cap:(-s) ~cost:big :: !art_in
    done;
    let n = Graph.node_count g in
    let scale = n + 1 in
    let cost a = Graph.cost g a * scale in
    let price = Array.make n 0 in
    let excess = Array.init n (fun v -> if v < n0 then Graph.supply g v else 0) in
    let pushes = ref 0 and relabels = ref 0 and phases = ref 0 in
    let reduced v a = cost a + price.(v) - price.(Graph.dst g a) in
    let eps = ref (((!max_abs_cost * scale) + alpha - 1) / alpha) in
    let queue = Queue.create () in
    let in_queue = Array.make n false in
    let activate v =
      if excess.(v) > 0 && not in_queue.(v) then begin
        Queue.push v queue;
        in_queue.(v) <- true
      end
    in
    let push v a amount =
      Graph.push g a amount;
      incr pushes;
      spend_step ();
      let w = Graph.dst g a in
      excess.(v) <- excess.(v) - amount;
      excess.(w) <- excess.(w) + amount;
      activate w
    in
    let discharge v =
      (* Push over admissible arcs; relabel when stuck. *)
      let continue_ = ref true in
      while excess.(v) > 0 && !continue_ do
        check_budget ();
        let progressed = ref false in
        Graph.iter_out g v (fun a ->
            if excess.(v) > 0 && Graph.residual_cap g a > 0 && reduced v a < 0 then begin
              push v a (min excess.(v) (Graph.residual_cap g a));
              progressed := true
            end);
        if excess.(v) > 0 && not !progressed then begin
          (* Relabel: lower the price just enough to create an
             admissible arc. *)
          let best = ref min_int in
          Graph.iter_out g v (fun a ->
              if Graph.residual_cap g a > 0 then begin
                let candidate = price.(Graph.dst g a) - cost a in
                if candidate > !best then best := candidate
              end);
          if !best = min_int then continue_ := false (* isolated; impossible with artificials *)
          else begin
            price.(v) <- !best - !eps;
            incr relabels;
            spend_step ()
          end
        end
      done
    in
    let exhausted = ref None in
    (try
       let running = ref true in
       while !running do
         incr phases;
         check_budget ();
         (* Restore ε-optimality for the smaller ε by saturating every
            negative-reduced-cost arc. *)
         staged t_saturate (fun () ->
             Graph.iter_arcs g (fun a ->
                 let v = Graph.src g a in
                 if Graph.residual_cap g a > 0 && reduced v a < 0 then
                   push v a (Graph.residual_cap g a);
                 let r = Graph.rev a in
                 let w = Graph.dst g a in
                 if Graph.residual_cap g r > 0 && reduced w r < 0 then
                   push w r (Graph.residual_cap g r));
             for v = 0 to n - 1 do
               activate v
             done);
         staged t_discharge (fun () ->
             while not (Queue.is_empty queue) do
               let v = Queue.pop queue in
               in_queue.(v) <- false;
               discharge v
             done);
         if !eps <= 1 then running := false else eps := max 1 ((!eps + alpha - 1) / alpha)
       done
     with Exhausted reason ->
       (* A mid-run pseudoflow violates conservation and is worthless to
          callers; abort cleanly to the zero flow. *)
       Graph.reset_flow g;
       exhausted := Some reason);
    let degraded = !exhausted <> None in
    if degraded && instrument then begin
      Obs.Registry.incr (Obs.Registry.counter "flow.budget_exhausted");
      Obs.Trace.emit "solver_degraded"
        [
          ("solver", Obs.Trace.Str "cost-scaling");
          ( "reason",
            Obs.Trace.Str (Format.asprintf "%a" Budget.pp_reason (Option.get !exhausted)) );
          ("shipped", Obs.Trace.Int 0);
        ]
    end;
    (* Account artificial flow as unshipped and neutralize its cost;
       each artificially-routed unit crosses one supply-side and one
       demand-side artificial arc.  After an abort all flows are zero,
       so everything counts as unshipped. *)
    let unshipped =
      if degraded then total_supply
      else List.fold_left (fun acc a -> acc + Graph.flow g a) 0 !art_out
    in
    let artificial_cost =
      List.fold_left (fun acc a -> acc + (Graph.flow g a * big)) 0 (!art_out @ !art_in)
    in
    let elapsed_s = Clock.now () -. t0 in
    let profile =
      {
        (Obs.Solver_profile.zero ~solver:"cost-scaling") with
        nodes = n;
        arcs = Graph.arc_count g;
        phases = !phases;
        pushes = !pushes;
        relabels = !relabels;
        stages =
          (if instrument then [ ("saturate", !t_saturate); ("discharge", !t_discharge) ] else []);
        wall_s = elapsed_s;
      }
    in
    if instrument then Obs.Solver_profile.emit profile;
    {
      shipped = total_supply - unshipped;
      unshipped;
      total_cost = Graph.flow_cost g - artificial_cost;
      phases = !phases;
      pushes = !pushes;
      relabels = !relabels;
      elapsed_s;
      degraded;
      profile;
    }
  end
