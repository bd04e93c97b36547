(* The per-context locality computation that the builder's tables
   replaced, kept as the reference they must match bit for bit: Γ as
   Alg. 1's list-and-hashtable IncLocProp run from every switch hosting
   a related task, and Φloc from the staged Υ and that Γ, with the
   server/switch split folded from the census's machine lists. *)

module Fat_tree = Topology.Fat_tree
module Int_tbl = Prelude.Int_tbl
module Census = Hire.Locality.Task_census

type gain = { table : int Int_tbl.t; max_gain : int }

let inc_loc_prop topo table ~start ~gamma ~xi =
  let visited = Int_tbl.create 32 in
  let visit = ref [ start ] in
  let g = ref gamma in
  while !g > 0 && !visit <> [] do
    let next = ref [] in
    List.iter
      (fun n ->
        if not (Int_tbl.mem visited n) then begin
          Int_tbl.replace visited n ();
          let cur = match Int_tbl.find_opt table n with Some v -> v | None -> 0 in
          Int_tbl.replace table n (cur + !g);
          List.iter
            (fun nb -> if Fat_tree.is_switch topo nb then next := nb :: !next)
            (Fat_tree.neighbors topo n)
        end)
      !visit;
    visit := List.filter (fun n -> not (Int_tbl.mem visited n)) !next;
    g := !g / xi
  done

let switches topo census ~tg_id =
  List.filter_map
    (fun (m, _) -> if Fat_tree.is_switch topo m then Some m else None)
    (Census.machines census ~tg_id)

let gain topo census ~related ~gamma ~xi =
  let table = Int_tbl.create 64 in
  let sources =
    List.concat_map (fun tg_id -> switches topo census ~tg_id) related |> List.sort_uniq Int.compare
  in
  List.iter (fun s -> inc_loc_prop topo table ~start:s ~gamma ~xi) sources;
  { table; max_gain = Int_tbl.fold (fun _ v acc -> max v acc) table 0 }

let gain_at t node = match Int_tbl.find_opt t.table node with Some v -> v | None -> 0

let normalized t node =
  if t.max_gain <= 0 then 0.0 else float_of_int (gain_at t node) /. float_of_int t.max_gain

(* Φloc at a node for a group whose related ids are [related]. *)
let phi_loc topo census ~(params : Hire.Cost_model.params) related =
  let related = List.sort_uniq Int.compare related in
  let on_servers, on_switches =
    List.fold_left
      (fun (sv, sw) tg_id ->
        List.fold_left
          (fun (sv, sw) (m, c) -> if Fat_tree.is_server topo m then (sv + c, sw) else (sv, sw + c))
          (sv, sw)
          (Census.machines census ~tg_id))
      (0, 0) related
  in
  let total_placed = on_servers + on_switches in
  if total_placed = 0 then fun _ ->
    Hire.Cost_model.phi_loc ~related_placed:false ~upsilon:1.0 ~gamma_norm:0.0 ~server_weight:0.5
  else begin
    let group_size = List.fold_left (fun acc id -> acc + Census.total census ~tg_id:id) 0 related in
    let upsilon =
      Hire.Locality.upsilon topo census ~tg_ids:related ~group_size:(max 1 group_size)
    in
    let gain = gain topo census ~related ~gamma:params.gamma ~xi:params.xi in
    let server_weight = float_of_int on_servers /. float_of_int total_placed in
    fun node ->
      Hire.Cost_model.phi_loc ~related_placed:true ~upsilon:(upsilon node)
        ~gamma_norm:(normalized gain node) ~server_weight
  end
