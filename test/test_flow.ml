(* Tests for the MCMF substrate: graph bookkeeping and adjacency order
   across patching, known solver instances, verifier behaviour, flow
   decomposition (including flows with zero-cost cycles), the fast
   SSP's live-arc scan against a full residual scan, hot-path
   allocation, and randomized properties cross-checked with the
   independent optimality verifier. *)

module Graph = Flow.Graph
module Mcmf = Flow.Mcmf
module Verify = Flow.Verify
module Ref = Ssp_reference

(* ------------------------------------------------------------------ *)
(* Graph representation                                               *)
(* ------------------------------------------------------------------ *)

let test_graph_basic () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  Alcotest.(check int) "node count" 2 (Graph.node_count g);
  let arc = Graph.add_arc g ~src:a ~dst:b ~cap:5 ~cost:3 in
  Alcotest.(check int) "arc count" 1 (Graph.arc_count g);
  Alcotest.(check int) "src" a (Graph.src g arc);
  Alcotest.(check int) "dst" b (Graph.dst g arc);
  Alcotest.(check int) "cap" 5 (Graph.capacity g arc);
  Alcotest.(check int) "cost" 3 (Graph.cost g arc);
  Alcotest.(check int) "flow 0" 0 (Graph.flow g arc)

let test_graph_push_residual () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let arc = Graph.add_arc g ~src:a ~dst:b ~cap:5 ~cost:1 in
  Graph.push g arc 3;
  Alcotest.(check int) "flow" 3 (Graph.flow g arc);
  Alcotest.(check int) "residual fwd" 2 (Graph.residual_cap g arc);
  Alcotest.(check int) "residual rev" 3 (Graph.residual_cap g (Graph.rev arc));
  Graph.push g (Graph.rev arc) 1;
  Alcotest.(check int) "flow after undo" 2 (Graph.flow g arc)

let test_graph_push_over_capacity () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let arc = Graph.add_arc g ~src:a ~dst:b ~cap:2 ~cost:0 in
  Alcotest.(check bool) "raises" true
    (try
       Graph.push g arc 3;
       false
     with Invalid_argument _ -> true)

let test_graph_supplies () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  Graph.set_supply g a 4;
  Graph.set_supply g b (-4);
  Graph.set_supply g a 6;
  Alcotest.(check int) "supply a" 6 (Graph.supply g a);
  Alcotest.(check int) "total positive" 6 (Graph.total_positive_supply g)

(* Reserving room for a bulk build changes no count; the nodes added
   into it get dense ids from 0. *)
let test_graph_add_nodes_bulk () =
  let g = Graph.create () in
  Graph.reserve g ~nodes:10 ~arcs:4;
  Alcotest.(check int) "reserve adds no node" 0 (Graph.node_count g);
  Alcotest.(check (list int)) "dense ids" (List.init 10 Fun.id)
    (List.init 10 (fun _ -> Graph.add_node g));
  Alcotest.(check int) "count" 10 (Graph.node_count g)

(* [n] fresh nodes; the first id. *)
let add_nodes g n =
  let first = Graph.node_count g in
  for _ = 1 to n do
    ignore (Graph.add_node g)
  done;
  first

let out_arcs g v =
  let acc = ref [] in
  Graph.iter_out g v (fun a -> acc := a :: !acc);
  List.rev !acc

let test_graph_reset_flow () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let arc = Graph.add_arc g ~src:a ~dst:b ~cap:5 ~cost:1 in
  Graph.push g arc 4;
  Graph.reset_flows g;
  Alcotest.(check int) "flow reset" 0 (Graph.flow g arc);
  Alcotest.(check int) "residual reset" 5 (Graph.residual_cap g arc)

let test_graph_iter_out () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g and c = Graph.add_node g in
  let _ = Graph.add_arc g ~src:a ~dst:b ~cap:1 ~cost:0 in
  let _ = Graph.add_arc g ~src:a ~dst:c ~cap:1 ~cost:0 in
  let targets = List.map (Graph.dst g) (out_arcs g a) in
  Alcotest.(check (list int)) "out neighbours" [ b; c ] (List.sort compare targets)

(* ------------------------------------------------------------------ *)
(* Solver: hand-checked instances                                     *)
(* ------------------------------------------------------------------ *)

(* Two parallel arcs of different costs: cheap one must fill first. *)
let test_mcmf_prefers_cheap_arc () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  Graph.set_supply g s 10;
  Graph.set_supply g t (-10);
  let cheap = Graph.add_arc g ~src:s ~dst:t ~cap:6 ~cost:1 in
  let pricey = Graph.add_arc g ~src:s ~dst:t ~cap:10 ~cost:5 in
  let r = Mcmf.solve g in
  Alcotest.(check int) "shipped" 10 r.shipped;
  Alcotest.(check int) "unshipped" 0 r.unshipped;
  Alcotest.(check int) "cheap full" 6 (Graph.flow g cheap);
  Alcotest.(check int) "pricey partial" 4 (Graph.flow g pricey);
  Alcotest.(check int) "cost" ((6 * 1) + (4 * 5)) r.total_cost

(* Classic diamond where the min-cost route must split. *)
let test_mcmf_diamond () =
  let g = Graph.create () in
  let s = Graph.add_node g
  and a = Graph.add_node g
  and b = Graph.add_node g
  and t = Graph.add_node g in
  Graph.set_supply g s 4;
  Graph.set_supply g t (-4);
  let _ = Graph.add_arc g ~src:s ~dst:a ~cap:2 ~cost:1 in
  let _ = Graph.add_arc g ~src:s ~dst:b ~cap:2 ~cost:2 in
  let _ = Graph.add_arc g ~src:a ~dst:t ~cap:2 ~cost:1 in
  let _ = Graph.add_arc g ~src:b ~dst:t ~cap:2 ~cost:1 in
  let r = Mcmf.solve g in
  Alcotest.(check int) "shipped" 4 r.shipped;
  Alcotest.(check int) "cost" ((2 * 2) + (2 * 3)) r.total_cost;
  (match Verify.check g with
  | Ok () -> ()
  | Error v -> Alcotest.failf "verify: %a" Verify.pp_violation v)

(* An assignment problem (3 tasks x 3 machines) with known optimum. *)
let test_mcmf_assignment () =
  let g = Graph.create () in
  let tasks = Array.init 3 (fun _ -> Graph.add_node g) in
  let machines = Array.init 3 (fun _ -> Graph.add_node g) in
  let sink = Graph.add_node g in
  Array.iter (fun t -> Graph.set_supply g t 1) tasks;
  Graph.set_supply g sink (-3);
  (* Cost matrix with unique optimum 1+2+2 = 5:
       t0: [1; 4; 5]   t1: [3; 2; 7]   t2: [6; 3; 2] *)
  let costs = [| [| 1; 4; 5 |]; [| 3; 2; 7 |]; [| 6; 3; 2 |] |] in
  Array.iteri
    (fun i t ->
      Array.iteri
        (fun j m -> ignore (Graph.add_arc g ~src:t ~dst:m ~cap:1 ~cost:costs.(i).(j)))
        machines)
    tasks;
  Array.iter (fun m -> ignore (Graph.add_arc g ~src:m ~dst:sink ~cap:1 ~cost:0)) machines;
  let r = Mcmf.solve g in
  Alcotest.(check int) "all assigned" 3 r.shipped;
  Alcotest.(check int) "optimal cost" 5 r.total_cost

(* Infeasible supply must be reported as unshipped, not looped on. *)
let test_mcmf_partial_infeasible () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  Graph.set_supply g s 10;
  Graph.set_supply g t (-10);
  let _ = Graph.add_arc g ~src:s ~dst:t ~cap:3 ~cost:1 in
  let r = Mcmf.solve g in
  Alcotest.(check int) "shipped" 3 r.shipped;
  Alcotest.(check int) "unshipped" 7 r.unshipped

let test_mcmf_disconnected () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  Graph.set_supply g s 5;
  Graph.set_supply g t (-5);
  let r = Mcmf.solve g in
  Alcotest.(check int) "nothing shipped" 0 r.shipped;
  Alcotest.(check int) "all unshipped" 5 r.unshipped

(* Negative arc costs exercised via the Bellman–Ford bootstrap. *)
let test_mcmf_negative_costs () =
  let g = Graph.create () in
  let s = Graph.add_node g
  and a = Graph.add_node g
  and t = Graph.add_node g in
  Graph.set_supply g s 2;
  Graph.set_supply g t (-2);
  let _ = Graph.add_arc g ~src:s ~dst:a ~cap:2 ~cost:(-3) in
  let _ = Graph.add_arc g ~src:a ~dst:t ~cap:2 ~cost:1 in
  let _ = Graph.add_arc g ~src:s ~dst:t ~cap:2 ~cost:0 in
  let r = Mcmf.solve g in
  Alcotest.(check int) "shipped" 2 r.shipped;
  Alcotest.(check int) "cost uses negative arc" (-4) r.total_cost;
  (match Verify.optimal g with
  | Ok () -> ()
  | Error v -> Alcotest.failf "not optimal: %a" Verify.pp_violation v)

(* Multi-source multi-sink. *)
let test_mcmf_multi_source_sink () =
  let g = Graph.create () in
  let s1 = Graph.add_node g
  and s2 = Graph.add_node g
  and t1 = Graph.add_node g
  and t2 = Graph.add_node g in
  Graph.set_supply g s1 3;
  Graph.set_supply g s2 2;
  Graph.set_supply g t1 (-4);
  Graph.set_supply g t2 (-1);
  let _ = Graph.add_arc g ~src:s1 ~dst:t1 ~cap:3 ~cost:1 in
  let _ = Graph.add_arc g ~src:s2 ~dst:t1 ~cap:2 ~cost:2 in
  let _ = Graph.add_arc g ~src:s2 ~dst:t2 ~cap:2 ~cost:1 in
  let r = Mcmf.solve g in
  Alcotest.(check int) "shipped" 5 r.shipped;
  Alcotest.(check int) "cost" (3 + 2 + 1) r.total_cost

(* ------------------------------------------------------------------ *)
(* Verifier                                                           *)
(* ------------------------------------------------------------------ *)

let test_verify_detects_suboptimal () =
  (* Manually push flow along the expensive route only; the residual
     network then contains a negative cycle through the cheap route. *)
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  Graph.set_supply g s 1;
  Graph.set_supply g t (-1);
  let _cheap = Graph.add_arc g ~src:s ~dst:t ~cap:1 ~cost:1 in
  let pricey = Graph.add_arc g ~src:s ~dst:t ~cap:1 ~cost:10 in
  Graph.push g pricey 1;
  (match Verify.optimal g with
  | Error (Verify.Negative_cycle _) -> ()
  | Error v -> Alcotest.failf "unexpected violation: %a" Verify.pp_violation v
  | Ok () -> Alcotest.fail "suboptimal flow accepted")

let test_verify_ok_on_zero_flow () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  let _ = Graph.add_arc g ~src:s ~dst:t ~cap:1 ~cost:1 in
  match Verify.check g with
  | Ok () -> ()
  | Error v -> Alcotest.failf "zero flow rejected: %a" Verify.pp_violation v

(* ------------------------------------------------------------------ *)
(* Decomposition                                                      *)
(* ------------------------------------------------------------------ *)

let test_decompose_simple_path () =
  let g = Graph.create () in
  let s = Graph.add_node g and a = Graph.add_node g and t = Graph.add_node g in
  Graph.set_supply g s 2;
  Graph.set_supply g t (-2);
  let _ = Graph.add_arc g ~src:s ~dst:a ~cap:2 ~cost:1 in
  let _ = Graph.add_arc g ~src:a ~dst:t ~cap:2 ~cost:1 in
  let _ = Mcmf.solve g in
  match Mcmf.decompose g with
  | [ p ] ->
      Alcotest.(check (list int)) "path" [ s; a; t ] p.Mcmf.nodes;
      Alcotest.(check int) "amount" 2 p.Mcmf.amount
  | ps -> Alcotest.failf "expected 1 path, got %d" (List.length ps)

let test_decompose_through_hub () =
  (* Two sources share an intermediate hub; decomposition must still
     account every shipped unit exactly once. *)
  let g = Graph.create () in
  let s1 = Graph.add_node g
  and s2 = Graph.add_node g
  and hub = Graph.add_node g
  and t = Graph.add_node g in
  Graph.set_supply g s1 2;
  Graph.set_supply g s2 3;
  Graph.set_supply g t (-5);
  let _ = Graph.add_arc g ~src:s1 ~dst:hub ~cap:2 ~cost:1 in
  let _ = Graph.add_arc g ~src:s2 ~dst:hub ~cap:3 ~cost:1 in
  let _ = Graph.add_arc g ~src:hub ~dst:t ~cap:5 ~cost:1 in
  let r = Mcmf.solve g in
  let paths = Mcmf.decompose g in
  Alcotest.(check int) "everything shipped" 5 r.Mcmf.shipped;
  Alcotest.(check int) "amount accounted" 5
    (List.fold_left (fun acc p -> acc + p.Mcmf.amount) 0 paths);
  List.iter
    (fun (p : Mcmf.path) ->
      Alcotest.(check bool) "path crosses hub" true (List.mem hub p.nodes))
    paths

let test_decompose_amounts_sum () =
  let g = Graph.create () in
  let s = Graph.add_node g
  and a = Graph.add_node g
  and b = Graph.add_node g
  and t = Graph.add_node g in
  Graph.set_supply g s 5;
  Graph.set_supply g t (-5);
  let _ = Graph.add_arc g ~src:s ~dst:a ~cap:3 ~cost:1 in
  let _ = Graph.add_arc g ~src:s ~dst:b ~cap:2 ~cost:1 in
  let _ = Graph.add_arc g ~src:a ~dst:t ~cap:3 ~cost:1 in
  let _ = Graph.add_arc g ~src:b ~dst:t ~cap:2 ~cost:1 in
  let r = Mcmf.solve g in
  let paths = Mcmf.decompose g in
  let total = List.fold_left (fun acc p -> acc + p.Mcmf.amount) 0 paths in
  Alcotest.(check int) "amounts sum to shipped" r.Mcmf.shipped total

(* Random bipartite scheduling-shaped instances: tasks -> machines ->
   sink, plus an always-feasible "unscheduled" node; the solved flow must
   pass the independent verifier and ship everything. *)
let random_instance seed =
  let rng = Prelude.Rng.create seed in
  let n_tasks = 1 + Prelude.Rng.int rng 12 in
  let n_machines = 1 + Prelude.Rng.int rng 12 in
  let g = Graph.create () in
  let tasks = Array.init n_tasks (fun _ -> Graph.add_node g) in
  let machines = Array.init n_machines (fun _ -> Graph.add_node g) in
  let unsched = Graph.add_node g in
  let sink = Graph.add_node g in
  Array.iter (fun t -> Graph.set_supply g t 1) tasks;
  Graph.set_supply g sink (-n_tasks);
  Array.iter
    (fun t ->
      ignore (Graph.add_arc g ~src:t ~dst:unsched ~cap:1 ~cost:50);
      Array.iter
        (fun m ->
          if Prelude.Rng.bernoulli rng 0.5 then
            ignore (Graph.add_arc g ~src:t ~dst:m ~cap:1 ~cost:(Prelude.Rng.int rng 40)))
        machines)
    tasks;
  Array.iter (fun m -> ignore (Graph.add_arc g ~src:m ~dst:sink ~cap:1 ~cost:0)) machines;
  ignore (Graph.add_arc g ~src:unsched ~dst:sink ~cap:n_tasks ~cost:0);
  g

(* ------------------------------------------------------------------ *)
(* Cost-scaling solver                                                *)
(* ------------------------------------------------------------------ *)

module Cost_scaling = Flow.Cost_scaling

let test_cost_scaling_simple () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  Graph.set_supply g s 10;
  Graph.set_supply g t (-10);
  let cheap = Graph.add_arc g ~src:s ~dst:t ~cap:6 ~cost:1 in
  let pricey = Graph.add_arc g ~src:s ~dst:t ~cap:10 ~cost:5 in
  let r = Cost_scaling.solve g in
  Alcotest.(check int) "shipped" 10 r.Mcmf.shipped;
  Alcotest.(check int) "cheap full" 6 (Graph.flow g cheap);
  Alcotest.(check int) "pricey partial" 4 (Graph.flow g pricey);
  Alcotest.(check int) "cost" 26 r.Mcmf.total_cost

let test_cost_scaling_infeasible () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  Graph.set_supply g s 5;
  Graph.set_supply g t (-5);
  let _ = Graph.add_arc g ~src:s ~dst:t ~cap:2 ~cost:3 in
  let r = Cost_scaling.solve g in
  Alcotest.(check int) "shipped" 2 r.Mcmf.shipped;
  Alcotest.(check int) "unshipped" 3 r.Mcmf.unshipped;
  Alcotest.(check int) "real cost only" 6 r.Mcmf.total_cost

let test_cost_scaling_negative_costs () =
  let g = Graph.create () in
  let s = Graph.add_node g and a = Graph.add_node g and t = Graph.add_node g in
  Graph.set_supply g s 2;
  Graph.set_supply g t (-2);
  let _ = Graph.add_arc g ~src:s ~dst:a ~cap:2 ~cost:(-3) in
  let _ = Graph.add_arc g ~src:a ~dst:t ~cap:2 ~cost:1 in
  let _ = Graph.add_arc g ~src:s ~dst:t ~cap:2 ~cost:0 in
  let r = Cost_scaling.solve g in
  Alcotest.(check int) "shipped" 2 r.Mcmf.shipped;
  Alcotest.(check int) "optimal cost" (-4) r.Mcmf.total_cost

let test_cost_scaling_zero_supply () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let _ = Graph.add_arc g ~src:a ~dst:b ~cap:3 ~cost:1 in
  let r = Cost_scaling.solve g in
  Alcotest.(check int) "nothing to ship" 0 r.Mcmf.shipped;
  Alcotest.(check int) "zero cost" 0 r.Mcmf.total_cost

let prop_cost_scaling_matches_ssp =
  (* Both exact algorithms must agree on the optimal cost. *)
  QCheck.Test.make ~name:"cost scaling agrees with SSP" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g1 = random_instance seed in
      let g2 = random_instance seed in
      let r1 = Mcmf.solve g1 in
      let r2 = Cost_scaling.solve g2 in
      r1.Mcmf.shipped = r2.Mcmf.shipped
      && r1.Mcmf.total_cost = r2.Mcmf.total_cost)

let prop_cost_scaling_verified =
  QCheck.Test.make ~name:"cost scaling passes the optimality verifier" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_instance seed in
      let _ = Cost_scaling.solve g in
      match Verify.check g with Ok () -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Randomized properties                                              *)
(* ------------------------------------------------------------------ *)

let prop_solver_output_verified =
  QCheck.Test.make ~name:"solver output passes independent verification" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_instance seed in
      let r = Mcmf.solve g in
      r.Mcmf.unshipped = 0
      && (match Verify.check g with Ok () -> true | Error _ -> false))

let prop_decompose_consistent =
  QCheck.Test.make ~name:"decomposition ships exactly the solved flow" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_instance seed in
      let r = Mcmf.solve g in
      let paths = Mcmf.decompose g in
      let total = List.fold_left (fun acc p -> acc + p.Mcmf.amount) 0 paths in
      total = r.Mcmf.shipped
      && List.for_all (fun p -> p.Mcmf.amount > 0 && List.length p.Mcmf.nodes >= 2) paths)

(* The solver accumulates its cost per augmentation; it must equal the
   full pass over the arcs, for solves a step budget cuts short too, and
   for a second solve that starts from the first one's flow (the pass
   itself prices that one). *)
let prop_total_cost_is_flow_cost =
  QCheck.Test.make ~name:"total_cost = flow_cost, budgeted and warm-started" ~count:200
    QCheck.(triple (int_range 0 100_000) (int_range 0 12) bool)
    (fun (seed, steps, again) ->
      let g = random_instance seed in
      let budget = if steps = 0 then None else Some (Flow.Budget.make ~max_steps:steps ()) in
      let scratch = Mcmf.scratch () in
      let r = Mcmf.solve ?budget ~scratch g in
      r.Mcmf.total_cost = Graph.flow_cost g
      && ((not again)
         ||
         let r2 = Mcmf.solve ~budget:(Flow.Budget.make ~max_steps:6 ()) ~scratch g in
         r2.Mcmf.total_cost = Graph.flow_cost g))

let prop_solver_cost_not_above_greedy =
  (* Min-cost flow can never cost more than routing everything through the
     expensive unscheduled arc. *)
  QCheck.Test.make ~name:"solver cost <= all-unscheduled cost" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_instance seed in
      let n_tasks =
        let acc = ref 0 in
        for v = 0 to Graph.node_count g - 1 do
          if Graph.supply g v > 0 then acc := !acc + Graph.supply g v
        done;
        !acc
      in
      let r = Mcmf.solve g in
      r.Mcmf.total_cost <= 50 * n_tasks)

(* ------------------------------------------------------------------ *)
(* Adjacency across in-place patching                                 *)
(* ------------------------------------------------------------------ *)

(* Random sequences of add_node, add_arc, push, mark, release and copy,
   checked after every step against a brute-force model: the arcs
   [iter_out] visits from [v] are exactly the ids [a] with [src a = v]
   at or above [v]'s floor (the arc count when [v] was added, restored
   by [release]), in decreasing order; the forward chain holds exactly
   the even ones. *)
let check_adjacency g floor =
  let m = 2 * Graph.arc_count g in
  let ok = ref true in
  for v = 0 to Graph.node_count g - 1 do
    let expected = ref [] in
    for a = 0 to m - 1 do
      if a >= floor.(v) && Graph.src g a = v then expected := a :: !expected
    done;
    let seen = out_arcs g v in
    let forward = ref [] and a = ref (Graph.Raw.forward_head g).(v) in
    while !a >= 0 do
      forward := !a :: !forward;
      a := (Graph.Raw.next g).(!a)
    done;
    if seen <> !expected then ok := false;
    if List.rev !forward <> List.filter (fun a -> a land 1 = 0) !expected then ok := false
  done;
  !ok

let adjacency_history seed =
  let rng = Prelude.Rng.create seed in
  let g = ref (Graph.create ~node_hint:1 ~arc_hint:1 ()) in
  let floor = ref (Array.make 64 0) in
  let marks = ref [] in
  let ok = ref true in
  let add_node () =
    let v = Graph.add_node !g in
    if v >= Array.length !floor then begin
      let f = Array.make (2 * v) 0 in
      Array.blit !floor 0 f 0 (Array.length !floor);
      floor := f
    end;
    !floor.(v) <- 2 * Graph.arc_count !g
  in
  add_node ();
  for _ = 1 to 60 do
    let n = Graph.node_count !g in
    (match Prelude.Rng.int rng 10 with
    | 0 | 1 -> add_node ()
    | 2 | 3 | 4 ->
        ignore
          (Graph.add_arc !g ~src:(Prelude.Rng.int rng n) ~dst:(Prelude.Rng.int rng n)
             ~cap:(Prelude.Rng.int rng 4) ~cost:(Prelude.Rng.int rng 7 - 2))
    | 5 ->
        let m = 2 * Graph.arc_count !g in
        if m > 0 then begin
          let a = Prelude.Rng.int rng m in
          let c = Graph.residual_cap !g a in
          if c > 0 then Graph.push !g a (1 + Prelude.Rng.int rng c)
        end
    | 6 -> marks := (Graph.mark !g, Array.copy !floor) :: !marks
    | 7 -> (
        match !marks with
        | [] -> ()
        | _ ->
            (* Releasing to a mark invalidates every later one. *)
            let i = Prelude.Rng.int rng (List.length !marks) in
            let rest = List.filteri (fun j _ -> j >= i) !marks in
            let mk, fl = List.hd rest in
            Graph.release !g mk;
            floor := Array.copy fl;
            marks := rest)
    | _ -> g := Graph.copy !g);
    if not (check_adjacency !g !floor) then ok := false
  done;
  !ok

let prop_adjacency_order =
  QCheck.Test.make ~name:"iter_out order across patching" ~count:300
    QCheck.(int_range 0 1_000_000)
    adjacency_history

(* ------------------------------------------------------------------ *)
(* Decomposition of flows with zero-cost cycles                       *)
(* ------------------------------------------------------------------ *)

(* The SSP ships 3 units at cost 4 here and leaves one unit on both
   1->2 and 2->1: the twin of 1->2 and the arc 2->1 tie when node 2 is
   scanned.  A walk 0->1->2->1->... then closes a cycle. *)
let cycle_graph ?(swap = false) ?(scale = 1) () =
  let g = Graph.create () in
  ignore (add_nodes g 5);
  Graph.set_supply g 0 3;
  Graph.set_supply g 4 (-3);
  let arc src dst cap cost = Graph.add_arc g ~src ~dst ~cap ~cost:(cost * scale) in
  ignore (arc 1 3 3 1);
  ignore (arc 0 1 1 0);
  ignore (arc 2 4 2 0);
  let a12, a21 =
    if swap then
      let a21 = arc 2 1 2 0 in
      (arc 1 2 2 0, a21)
    else
      let a12 = arc 1 2 2 0 in
      (a12, arc 2 1 2 0)
  in
  ignore (arc 0 2 3 1);
  ignore (arc 3 4 2 1);
  (g, a12, a21)

(* Paths must start at supply, end at demand, follow arcs with flow and
   use no node pair beyond the flow the solve left on it. *)
let paths_consistent g (paths : Mcmf.path list) =
  let n = Graph.node_count g in
  let pair_flow = Hashtbl.create 16 in
  Graph.iter_arcs g (fun a ->
      let key = (Graph.src g a, Graph.dst g a) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt pair_flow key) in
      Hashtbl.replace pair_flow key (prev + Graph.flow g a));
  let used = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (fun (p : Mcmf.path) ->
      let nodes = Array.of_list p.nodes in
      let k = Array.length nodes in
      if p.amount <= 0 || k < 2 then ok := false
      else begin
        if Graph.supply g nodes.(0) <= 0 || Graph.supply g nodes.(k - 1) >= 0 then ok := false;
        let seen = Array.make n false in
        Array.iter (fun v -> if seen.(v) then ok := false else seen.(v) <- true) nodes;
        for i = 0 to k - 2 do
          let key = (nodes.(i), nodes.(i + 1)) in
          let u = p.amount + Option.value ~default:0 (Hashtbl.find_opt used key) in
          Hashtbl.replace used key u;
          if u > Option.value ~default:0 (Hashtbl.find_opt pair_flow key) then ok := false
        done
      end)
    paths;
  !ok

let test_decompose_zero_cost_cycle () =
  let g, a12, a21 = cycle_graph () in
  let r = Mcmf.solve g in
  Alcotest.(check int) "shipped" 3 r.Mcmf.shipped;
  Alcotest.(check int) "cost" 4 r.Mcmf.total_cost;
  Alcotest.(check int) "flow on 1->2" 1 (Graph.flow g a12);
  Alcotest.(check int) "flow on 2->1" 1 (Graph.flow g a21);
  let paths = Mcmf.decompose g in
  Alcotest.(check int) "paths ship everything" 3
    (List.fold_left (fun acc (p : Mcmf.path) -> acc + p.amount) 0 paths);
  Alcotest.(check bool) "paths follow the flow" true (paths_consistent g paths)

(* Random graphs rich in zero-cost antiparallel pairs and parallel
   arcs, so solves leave flow cycles behind. *)
let random_cyclic_graph rng =
  let n = 3 + Prelude.Rng.int rng 8 in
  let g = Graph.create () in
  ignore (add_nodes g n);
  let total = 1 + Prelude.Rng.int rng 6 in
  Graph.set_supply g 0 total;
  Graph.set_supply g (n - 1) (-total);
  for _ = 1 to n + Prelude.Rng.int rng (3 * n) do
    let u = Prelude.Rng.int rng n and v = Prelude.Rng.int rng n in
    if u <> v then begin
      let cap = 1 + Prelude.Rng.int rng 3 in
      if Prelude.Rng.bernoulli rng 0.5 then begin
        ignore (Graph.add_arc g ~src:u ~dst:v ~cap ~cost:0);
        ignore (Graph.add_arc g ~src:v ~dst:u ~cap ~cost:0)
      end
      else ignore (Graph.add_arc g ~src:u ~dst:v ~cap ~cost:(Prelude.Rng.int rng 3))
    end
  done;
  g

let prop_decompose_cycles =
  QCheck.Test.make ~name:"decompose ends on zero-cost cycles" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = random_cyclic_graph (Prelude.Rng.create seed) in
      let r = Mcmf.solve g in
      let paths = Mcmf.decompose g in
      List.fold_left (fun acc (p : Mcmf.path) -> acc + p.amount) 0 paths = r.Mcmf.shipped
      && paths_consistent g paths)

(* ------------------------------------------------------------------ *)
(* Fast SSP identity against the full residual scan                   *)
(* ------------------------------------------------------------------ *)

let flows g =
  let acc = ref [] in
  Graph.iter_arcs g (fun a -> acc := Graph.flow g a :: !acc);
  !acc

(* Solve [g] with the production solver (on [g]) and the full-scan
   reference (test/ssp_reference.ml, on a copy taken first); true iff
   results and per-arc flows agree. *)
let same_as_reference ?scratch g =
  let ref_g = Graph.copy g in
  let r = Mcmf.solve ?scratch g in
  let r_ref = Ref.full_scan ref_g in
  r.Mcmf.shipped = r_ref.Ref.shipped
  && r.Mcmf.augmentations = r_ref.Ref.augmentations
  && flows g = flows ref_g

(* Costs scaled by this spread distances over a wide range of keys,
   where the small-cost graphs tie on a few. *)
let large_scale = 100_000

(* Random multigraphs with parallel and antiparallel arcs.  [`Small]
   keeps costs small and non-negative; [`Large] scales them by
   [large_scale] and [`Negative] adds negative costs
   (potential-shifted, so no negative cycle). *)
let random_multigraph ?(g = Graph.create ()) rng kind =
  let base = Graph.node_count g in
  let n = 2 + Prelude.Rng.int rng 9 in
  ignore (add_nodes g n);
  let phi = Array.init n (fun _ -> Prelude.Rng.int rng 6) in
  for _ = 1 to 1 + Prelude.Rng.int rng 5 do
    let s = Prelude.Rng.int rng n and t = Prelude.Rng.int rng n in
    let amount = 1 + Prelude.Rng.int rng 4 in
    Graph.set_supply g (base + s) (Graph.supply g (base + s) + amount);
    Graph.set_supply g (base + t) (Graph.supply g (base + t) - amount)
  done;
  (* Most arcs cost 0: zero-cost antiparallel pairs are where an arc
     and a live twin tie for the same destination. *)
  let cost u v =
    let c = max 0 (Prelude.Rng.int rng 4 - 2) in
    match kind with
    | `Small -> c
    | `Large -> c * large_scale
    | `Negative -> c + phi.(u) - phi.(v)
  in
  for _ = 1 to n + Prelude.Rng.int rng (4 * n) do
    let u = Prelude.Rng.int rng n and v = Prelude.Rng.int rng n in
    if u <> v then begin
      let arc u v = Graph.add_arc g ~src:(base + u) ~dst:(base + v) ~cap:(1 + Prelude.Rng.int rng 3) ~cost:(cost u v) in
      ignore (arc u v);
      if Prelude.Rng.bernoulli rng 0.3 then ignore (arc u v);
      if Prelude.Rng.bernoulli rng 0.7 then ignore (arc v u)
    end
  done;
  g

let kind_of seed = match seed mod 3 with 0 -> `Small | 1 -> `Large | _ -> `Negative

(* Some graphs start with flow on zero-cost arcs: the solver ignores it
   in its excesses but must scan the twins it left with capacity.  Only
   without negative costs, where such flow leaves every residual cost
   non-negative; otherwise it could leave a negative residual cycle,
   which no SSP handles. *)
let prop_fast_scan_identity =
  let scratch = Mcmf.scratch () in
  QCheck.Test.make ~name:"live-arc scan equals full scan" ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prelude.Rng.create seed in
      let kind = kind_of seed in
      let g = random_multigraph rng kind in
      if seed land 1 = 1 && kind <> `Negative then
        Graph.iter_arcs g (fun a ->
            if Graph.cost g a = 0 && Prelude.Rng.bernoulli rng 0.3 then
              Graph.push g a (Prelude.Rng.int rng (Graph.residual_cap g a + 1)));
      same_as_reference ~scratch g)

(* One graph patched with mark/release across rounds, as the network
   builder does, solved with one reused scratch. *)
let prop_fast_scan_patched =
  QCheck.Test.make ~name:"live-arc scan equals full scan, patched" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prelude.Rng.create seed in
      let scratch = Mcmf.scratch () in
      let kind = kind_of seed in
      let g = random_multigraph rng kind in
      let mk = Graph.mark g in
      List.for_all
        (fun _ ->
          Graph.reset_flows g;
          Graph.release g mk;
          ignore (random_multigraph ~g rng kind);
          (* Suffix arcs into the prefix put twins on prefix chains; cost
             5 outweighs any potential shift, so no negative cycle. *)
          for _ = 1 to 3 do
            let n = Graph.node_count g in
            ignore
              (Graph.add_arc g ~src:(Prelude.Rng.int rng n) ~dst:(Prelude.Rng.int rng n)
                 ~cap:(1 + Prelude.Rng.int rng 3)
                 ~cost:(match kind with `Large -> large_scale | _ -> 5))
          done;
          same_as_reference ~scratch g)
        [ 1; 2; 3; 4 ])

(* Scheduling-shaped graphs, laid out as the HIRE builder lays them out:
   the sink is node 0, then the prefix (machines, each with a
   capacity-1 arc to the sink, and aux nodes fanning out to machines at
   cost 0), then per round the groups, which are the sources, with
   shortcut arcs into the prefix and a costly arc to a postpone node.
   Most costs are 0, so most augmenting paths have reduced length 0 and
   ties are everywhere; once the cheap machines fill up, the paths turn
   positive.  [scale] multiplies every cost. *)
let sched_prefix ~scale rng =
  let g = Graph.create () in
  let sink = Graph.add_node g in
  let n_machines = 2 + Prelude.Rng.int rng 8 in
  let first = add_nodes g n_machines in
  for m = first to first + n_machines - 1 do
    ignore
      (Graph.add_arc g ~src:m ~dst:sink ~cap:1
         ~cost:(scale * max 0 (Prelude.Rng.int rng 5 - 2)))
  done;
  for _ = 1 to 1 + Prelude.Rng.int rng 3 do
    let aux = Graph.add_node g in
    for m = first to first + n_machines - 1 do
      if Prelude.Rng.bernoulli rng 0.5 then
        ignore (Graph.add_arc g ~src:aux ~dst:m ~cap:1 ~cost:0)
    done
  done;
  g

(* Appends one round of groups to [g], whose nodes [1 .. prefix - 1]
   are machines and aux nodes. *)
let sched_suffix ~scale rng g =
  let prefix = Graph.node_count g in
  let postpone = Graph.add_node g in
  let total = ref 0 in
  for _ = 1 to 1 + Prelude.Rng.int rng 4 do
    let grp = Graph.add_node g in
    let supply = 1 + Prelude.Rng.int rng 4 in
    Graph.set_supply g grp supply;
    total := !total + supply;
    for _ = 1 to 1 + Prelude.Rng.int rng 5 do
      ignore
        (Graph.add_arc g ~src:grp
           ~dst:(1 + Prelude.Rng.int rng (prefix - 1))
           ~cap:(1 + Prelude.Rng.int rng 2)
           ~cost:(scale * max 0 (Prelude.Rng.int rng 4 - 1)))
    done;
    ignore (Graph.add_arc g ~src:grp ~dst:postpone ~cap:supply ~cost:(scale * 5))
  done;
  ignore (Graph.add_arc g ~src:postpone ~dst:0 ~cap:!total ~cost:0);
  Graph.set_supply g 0 (Graph.supply g 0 - !total)

let sched_scale seed = if seed land 1 = 0 then 1 else 40_000

let sched_graph seed =
  let rng = Prelude.Rng.create seed in
  let scale = sched_scale seed in
  let g = sched_prefix ~scale rng in
  sched_suffix ~scale rng g;
  g

(* One prefix, four rounds of groups, one reused scratch. *)
let sched_patched seed =
  let rng = Prelude.Rng.create seed in
  let scale = sched_scale seed in
  let scratch = Mcmf.scratch () in
  let g = sched_prefix ~scale rng in
  let mk = Graph.mark g in
  List.for_all
    (fun _ ->
      Graph.reset_flows g;
      Graph.release g mk;
      sched_suffix ~scale rng g;
      same_as_reference ~scratch g)
    [ 1; 2; 3; 4 ]

(* One scratch across all graphs: each solve must start a new epoch,
   or the blocked marks of the last graph's search would skip scans in
   this one (docs/PERFORMANCE.md, "Why the skip is exact").  Most of
   these solves mix zero-length paths with Dijkstra ones, and each
   Dijkstra must start a new epoch too. *)
let prop_fast_scan_sched =
  let scratch = Mcmf.scratch () in
  QCheck.Test.make ~name:"live-arc scan equals full scan, scheduling-shaped" ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed -> same_as_reference ~scratch (sched_graph seed))

let prop_fast_scan_sched_patched =
  QCheck.Test.make ~name:"live-arc scan equals full scan, scheduling-shaped patched"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    sched_patched

(* Over a fixed run of scheduling-shaped solves, both kinds of
   augmentation occur, so both the zero-length search and the full
   Dijkstra it falls back to are exercised; and the solver's
   [flow.zero_paths] counter equals the reference's count of
   zero-length augmentations, so the search finds a path exactly when
   the full Dijkstra would have found one of length 0.  The search also
   skips the scans of nodes it found blocked earlier in the epoch
   ([flow.zero_blocked]), so the skip is exercised too. *)
let test_fast_scan_sched_both_kinds () =
  let was_enabled = Obs.enabled () in
  Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
  Obs.set_enabled true;
  let counter name =
    Option.value (List.assoc_opt name (Obs.Registry.counters ())) ~default:0
  in
  let zero_paths () = counter "flow.zero_paths" in
  let z0 = !Ref.zero_paths and p0 = !Ref.positive_paths in
  let c0 = zero_paths () and b0 = counter "flow.zero_blocked" in
  for seed = 0 to 299 do
    Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true
      (same_as_reference (sched_graph seed));
    Alcotest.(check bool) (Printf.sprintf "seed %d, patched" seed) true
      (seed >= 60 || sched_patched seed)
  done;
  let zero = !Ref.zero_paths - z0 and positive = !Ref.positive_paths - p0 in
  Alcotest.(check bool) "zero-length augmentations occur" true (zero > 0);
  Alcotest.(check bool) "positive-length augmentations occur" true (positive > 0);
  Alcotest.(check int) "flow.zero_paths counts the zero-length ones" zero
    (zero_paths () - c0);
  Alcotest.(check bool) "blocked scans are skipped" true (counter "flow.zero_blocked" > b0)

(* Sink 0, aux node A = 1, machines M1 = 2 and M2 = 3, sources S1 = 4
   and S2 = 5.  The first Dijkstra pops S1, then A, which it reached at
   key 0 from S1 and which pops before S2 by node order, then M1 and
   the sink: the path S1 -> A -> M1 -> K, of length 0.  S2 then finds
   no zero-length path (only M2, at cost 1, still reaches the sink), so
   the full search takes S2 -> M2 -> K.  Popping both sources before A
   would have sent S2 through M1 and S1 through A -> M2 instead. *)
let test_fast_scan_prefix_between_sources () =
  List.iter
    (fun scale ->
      let g = Graph.create () in
      ignore (add_nodes g 6);
      let arc src dst cost = Graph.add_arc g ~src ~dst ~cap:1 ~cost:(cost * scale) in
      let s1_a = arc 4 1 0 in
      let a_m1 = arc 1 2 0 in
      let a_m2 = arc 1 3 1 in
      let s2_m1 = arc 5 2 0 in
      let s2_m2 = arc 5 3 1 in
      let m1_k = arc 2 0 0 in
      let m2_k = arc 3 0 0 in
      Graph.set_supply g 4 1;
      Graph.set_supply g 5 1;
      Graph.set_supply g 0 (-2);
      let z0 = !Ref.zero_paths and p0 = !Ref.positive_paths in
      Alcotest.(check bool) "same flows" true (same_as_reference g);
      Alcotest.(check (pair int int)) "one zero-length, one positive" (1, 1)
        (!Ref.zero_paths - z0, !Ref.positive_paths - p0);
      Alcotest.(check (list int)) "flows"
        [ 1; 1; 0; 0; 1; 1; 1 ]
        (List.map (Graph.flow g) [ s1_a; a_m1; a_m2; s2_m1; s2_m2; m1_k; m2_k ]))
    [ 1; large_scale ]

(* Sink K = 0, B = 1, X = 2, A = 3, source S = 4.  The zero-length
   search settles S, then A (reached from S at key 0), then B, which
   only A reaches at key 0, so A settles before B although B has the
   smaller id.  It finds no deficit and misses; the Dijkstra resumes by
   replaying the scans of S, A and B in that order.  A and B both reach
   X at distance 1, and the strict relaxation keeps the first one, so
   X's parent is A -> X even though B -> X was created first.  A replay
   that scanned B before A would send the unit through B. *)
let test_fast_scan_resume_keeps_settle_order () =
  List.iter
    (fun scale ->
      let g = Graph.create () in
      ignore (add_nodes g 5);
      let arc src dst cost = Graph.add_arc g ~src ~dst ~cap:1 ~cost:(cost * scale) in
      let b_x = arc 1 2 1 in
      let a_x = arc 3 2 1 in
      let s_a = arc 4 3 0 in
      let a_b = arc 3 1 0 in
      let x_k = arc 2 0 0 in
      Graph.set_supply g 4 1;
      Graph.set_supply g 0 (-1);
      let z0 = !Ref.zero_paths and p0 = !Ref.positive_paths in
      Alcotest.(check bool) "same flows" true (same_as_reference g);
      Alcotest.(check (pair int int)) "one positive augmentation" (0, 1)
        (!Ref.zero_paths - z0, !Ref.positive_paths - p0);
      Alcotest.(check (list int)) "flows" [ 0; 1; 1; 0; 1 ]
        (List.map (Graph.flow g) [ b_x; a_x; s_a; a_b; x_k ]))
    [ 1; large_scale ]

(* Both creation orders of the tied pair, at both cost scales: with
   2->1 created first, the twin of 1->2 outranks it at node 2. *)
let test_fast_scan_cycle_graph () =
  List.iter
    (fun (swap, scale) ->
      let g, _, _ = cycle_graph ~swap ~scale () in
      Alcotest.(check bool) "same flows" true (same_as_reference g))
    [ (false, 1); (true, 1); (false, large_scale); (true, large_scale) ]

(* ------------------------------------------------------------------ *)
(* Allocation on the hot path                                         *)
(* ------------------------------------------------------------------ *)

(* [k] unit paths s -> m_i -> t: [k] augmentations.  The first [zero]
   paths cost 0, so the zero-length search finds them; the others make
   it miss and the Dijkstra resume.  [scale] multiplies the positive
   costs. *)
let fan ?(zero = 0) k ~scale =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  for i = 1 to k do
    let m = Graph.add_node g in
    ignore (Graph.add_arc g ~src:s ~dst:m ~cap:1 ~cost:(if i <= zero then 0 else i * scale));
    ignore (Graph.add_arc g ~src:m ~dst:t ~cap:1 ~cost:0)
  done;
  Graph.set_supply g s k;
  Graph.set_supply g t (-k);
  g

(* With Obs disabled, a warm solve allocates only its fixed per-solve
   records: the same minor words for 10 augmentations as for 200, also
   when half of them are zero-length and the others resume the search
   (the reference run on a copy counts both kinds). *)
let test_warm_solve_allocation () =
  Obs.set_enabled false;
  List.iter
    (fun (scale, half) ->
      let scratch = Mcmf.scratch () in
      let small = fan ~zero:(if half then 5 else 0) 10 ~scale in
      let large = fan ~zero:(if half then 100 else 0) 200 ~scale in
      if half then begin
        let z0 = !Ref.zero_paths and p0 = !Ref.positive_paths in
        ignore (Ref.full_scan (Graph.copy large));
        Alcotest.(check (pair int int)) "zero-length and resumed" (100, 100)
          (!Ref.zero_paths - z0, !Ref.positive_paths - p0)
      end;
      let solve g =
        Graph.reset_flows g;
        let before = Gc.minor_words () in
        let r = Mcmf.solve ~scratch g in
        let words = Gc.minor_words () -. before in
        (r.Mcmf.augmentations, words)
      in
      ignore (solve small);
      ignore (solve large);
      let aug_small, words_small = solve small in
      let aug_large, words_large = solve large in
      Alcotest.(check (pair int int)) "augmentations" (10, 200) (aug_small, aug_large);
      Alcotest.(check (float 0.0)) "same minor words" words_small words_large)
    [ (1, false); (1000, false); (1, true); (1000, true) ]

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "flow"
    [
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "push/residual" `Quick test_graph_push_residual;
          Alcotest.test_case "push over capacity" `Quick test_graph_push_over_capacity;
          Alcotest.test_case "supplies" `Quick test_graph_supplies;
          Alcotest.test_case "bulk nodes" `Quick test_graph_add_nodes_bulk;
          Alcotest.test_case "reset flow" `Quick test_graph_reset_flow;
          Alcotest.test_case "iter out" `Quick test_graph_iter_out;
        ]
        @ qt [ prop_adjacency_order ] );
      ( "mcmf",
        [
          Alcotest.test_case "prefers cheap arc" `Quick test_mcmf_prefers_cheap_arc;
          Alcotest.test_case "diamond" `Quick test_mcmf_diamond;
          Alcotest.test_case "assignment" `Quick test_mcmf_assignment;
          Alcotest.test_case "partial infeasible" `Quick test_mcmf_partial_infeasible;
          Alcotest.test_case "disconnected" `Quick test_mcmf_disconnected;
          Alcotest.test_case "negative costs" `Quick test_mcmf_negative_costs;
          Alcotest.test_case "multi source/sink" `Quick test_mcmf_multi_source_sink;
          Alcotest.test_case "warm solve allocation" `Quick test_warm_solve_allocation;
        ] );
      ( "verify",
        [
          Alcotest.test_case "detects suboptimal" `Quick test_verify_detects_suboptimal;
          Alcotest.test_case "ok on zero flow" `Quick test_verify_ok_on_zero_flow;
        ] );
      ( "cost_scaling",
        Alcotest.test_case "simple" `Quick test_cost_scaling_simple
        :: Alcotest.test_case "infeasible" `Quick test_cost_scaling_infeasible
        :: Alcotest.test_case "negative costs" `Quick test_cost_scaling_negative_costs
        :: Alcotest.test_case "zero supply" `Quick test_cost_scaling_zero_supply
        :: qt [ prop_cost_scaling_matches_ssp; prop_cost_scaling_verified ] );
      ( "decompose",
        [
          Alcotest.test_case "simple path" `Quick test_decompose_simple_path;
          Alcotest.test_case "amounts sum" `Quick test_decompose_amounts_sum;
          Alcotest.test_case "through hub" `Quick test_decompose_through_hub;
          Alcotest.test_case "zero-cost cycle" `Quick test_decompose_zero_cost_cycle;
        ]
        @ qt [ prop_decompose_cycles ] );
      ( "fast-scan",
        Alcotest.test_case "cycle graph" `Quick test_fast_scan_cycle_graph
        :: Alcotest.test_case "scheduling-shaped, both path kinds" `Quick
             test_fast_scan_sched_both_kinds
        :: Alcotest.test_case "prefix node pops between sources" `Quick
             test_fast_scan_prefix_between_sources
        :: qt
             [
               prop_fast_scan_identity;
               prop_fast_scan_patched;
               prop_fast_scan_sched;
               prop_fast_scan_sched_patched;
             ]
        @ [
            Alcotest.test_case "resume keeps the settle order" `Quick
              test_fast_scan_resume_keeps_settle_order;
          ] );
      ( "properties",
        qt
          [
            prop_solver_output_verified;
            prop_decompose_consistent;
            prop_solver_cost_not_above_greedy;
            prop_total_cost_is_flow_cost;
          ] );
    ]
