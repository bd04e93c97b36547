module Vec = Prelude.Vec
module Fat_tree = Topology.Fat_tree
module Int_tbl = Prelude.Int_tbl

type sw_state = {
  avail : Vec.t;  (* mutated in place *)
  supported : (string, unit) Hashtbl.t;
  counts : (string, int) Hashtbl.t;  (* running instances per service *)
  mutable n_active : int;  (* services with a positive count *)
  registered : (string, Vec.t) Hashtbl.t;  (* per-switch part currently charged *)
  mutable alive : bool;  (* fault injection: dead switches host nothing *)
}

(* [by_index.(i)] is the state of switch [ids.(i)]: the same records
   as [states], laid out for scans in [ids] order.  [supporters] maps a
   service to the ascending indices into [by_index] of the switches
   capable of it, filled in on a service's first scan: the capability
   sets never change. *)
type t = {
  cap : Vec.t;
  states : sw_state Int_tbl.t;
  ids : int array;
  by_index : sw_state array;
  supporters : (string, int array) Hashtbl.t;
}

let create ~topo ~capacity ~supported =
  let ids = Fat_tree.switches topo in
  let states = Int_tbl.create (Array.length ids) in
  let by_index =
    Array.map
      (fun id ->
        let sup = Hashtbl.create 8 in
        List.iter (fun s -> Hashtbl.replace sup s ()) (supported id);
        let st =
          {
            avail = Vec.copy capacity;
            supported = sup;
            counts = Hashtbl.create 4;
            n_active = 0;
            registered = Hashtbl.create 4;
            alive = true;
          }
        in
        Int_tbl.replace states id st;
        st)
      ids
  in
  { cap = Vec.copy capacity; states; ids; by_index; supporters = Hashtbl.create 8 }

let state t switch =
  match Int_tbl.find_opt t.states switch with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Sharing: %d is not a switch" switch)

let capacity t = Vec.copy t.cap
let available t switch = Vec.copy (state t switch).avail
let live_available t switch = (state t switch).avail
let live_capacity t = t.cap

let is_alive t switch = (state t switch).alive
let set_alive t switch alive = (state t switch).alive <- alive

(* Liveness masks capability: schedulers route every placement decision
   through [supports]/[can_place], so a dead switch offers no service.
   [n_supported] counts the static capability set — counting
   INC-capable hardware must not fluctuate with the fault plan. *)
let supports t ~switch ~service =
  let st = state t switch in
  st.alive && Hashtbl.mem st.supported service

let active_services t switch =
  Hashtbl.fold (fun k c acc -> if c > 0 then k :: acc else acc) (state t switch).counts []
  |> List.sort String.compare

let n_active t switch = (state t switch).n_active
let n_supported t switch = Hashtbl.length (state t switch).supported

(* [Hashtbl.find] rather than [find_opt]: no [Some] box per lookup. *)
let st_instances st service =
  match Hashtbl.find st.counts service with c -> c | exception Not_found -> 0

let instances t ~switch ~service = st_instances (state t switch) service

let supporters t service =
  match Hashtbl.find t.supporters service with
  | idx -> idx
  | exception Not_found ->
      let idx = ref [] in
      for i = Array.length t.by_index - 1 downto 0 do
        if Hashtbl.mem t.by_index.(i).supported service then idx := i :: !idx
      done;
      let idx = Array.of_list !idx in
      Hashtbl.replace t.supporters service idx;
      idx

let iter_supporting t ~service f =
  let idx = supporters t service in
  for j = 0 to Array.length idx - 1 do
    let i = idx.(j) in
    let st = t.by_index.(i) in
    if st.alive then
      f t.ids.(i) ~avail:st.avail ~capacity:t.cap
        ~active:(st.n_active > 0 && st_instances st service > 0)
        ~n_active:st.n_active
        ~n_supported:(Hashtbl.length st.supported)
  done

let effective_demand t ~switch ~service ~per_switch ~per_instance =
  if instances t ~switch ~service > 0 then Vec.copy per_instance
  else Vec.add per_switch per_instance

let can_place t ~switch ~service ~per_switch ~per_instance =
  supports t ~switch ~service
  && Vec.fits
       ~demand:(effective_demand t ~switch ~service ~per_switch ~per_instance)
       ~available:(state t switch).avail

let place t ~switch ~service ~per_switch ~per_instance =
  if not (can_place t ~switch ~service ~per_switch ~per_instance) then
    invalid_arg
      (Printf.sprintf "Sharing.place: service %s does not fit on switch %d" service switch);
  let st = state t switch in
  let first = instances t ~switch ~service = 0 in
  Vec.sub_into st.avail per_instance;
  if first then begin
    Vec.sub_into st.avail per_switch;
    Hashtbl.replace st.registered service (Vec.copy per_switch);
    st.n_active <- st.n_active + 1
  end;
  Hashtbl.replace st.counts service (instances t ~switch ~service + 1)

(* Defensive ledger check: a refund beyond capacity means a double
   release (or a release with the wrong demand) corrupted the ledger —
   fail loudly instead of silently inflating the switch.  Tolerates
   floating-point drift from repeated charge/refund cycles. *)
let check_over_release st cap ~switch =
  Array.iteri
    (fun i x ->
      let c = cap.(i) in
      let eps = 1e-6 *. (1.0 +. Float.abs c) in
      if x > c +. eps then
        invalid_arg
          (Printf.sprintf "Sharing.release: over-release on switch %d (dimension %d)" switch i)
      else if x > c then st.avail.(i) <- c)
    st.avail

let release t ~switch ~service ~per_instance =
  let st = state t switch in
  let c = instances t ~switch ~service in
  if c <= 0 then
    invalid_arg
      (Printf.sprintf "Sharing.release: no instance of %s on switch %d" service switch);
  Vec.add_into st.avail per_instance;
  if c = 1 then begin
    (match Hashtbl.find_opt st.registered service with
    | Some reg -> Vec.add_into st.avail reg
    | None -> ());
    Hashtbl.remove st.registered service;
    Hashtbl.remove st.counts service;
    st.n_active <- st.n_active - 1
  end
  else Hashtbl.replace st.counts service (c - 1);
  check_over_release st t.cap ~switch

let total_used t =
  let acc = Vec.zero (Vec.dim t.cap) in
  Array.iter
    (fun id ->
      let st = state t id in
      Vec.add_into acc (Vec.sub t.cap st.avail))
    t.ids;
  acc

let switch_ids t = t.ids

(* ------------------------------------------------------------------ *)
(* Snapshot / restore (journal checkpoints, docs/JOURNAL.md)           *)
(* ------------------------------------------------------------------ *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The static capability set ([supported]) and capacity are reproduced
   by rebuilding the cluster from its seed, so only the dynamic ledger
   state is serialized.  Switches are walked in [ids] order — a fixed
   array — and table contents in sorted-key order, so the same ledger
   state always encodes to the same bytes. *)
let encode_state t e =
  let module Enc = Prelude.Codec.Enc in
  Enc.array e
    (fun e id ->
      let st = state t id in
      Enc.float_array e st.avail;
      Enc.bool e st.alive;
      Enc.list e
        (fun e (s, c) ->
          Enc.string e s;
          Enc.uint e c)
        (sorted_bindings st.counts);
      Enc.list e
        (fun e (s, v) ->
          Enc.string e s;
          Enc.float_array e v)
        (sorted_bindings st.registered))
    t.ids

let decode_state t d =
  let module Dec = Prelude.Codec.Dec in
  let n = Dec.uint d in
  if n <> Array.length t.ids then
    raise
      (Prelude.Codec.Error
         (Printf.sprintf "Sharing: snapshot has %d switches, ledger has %d" n
            (Array.length t.ids)));
  Array.iter
    (fun id ->
      let st = state t id in
      let avail = Dec.float_array d in
      if Array.length avail <> Array.length st.avail then
        raise (Prelude.Codec.Error "Sharing: snapshot dimension mismatch");
      Array.blit avail 0 st.avail 0 (Array.length avail);
      st.alive <- Dec.bool d;
      Hashtbl.reset st.counts;
      List.iter (fun (s, c) -> Hashtbl.replace st.counts s c)
        (Dec.list d (fun d ->
             let s = Dec.string d in
             let c = Dec.uint d in
             (s, c)));
      st.n_active <- Hashtbl.fold (fun _ c n -> if c > 0 then n + 1 else n) st.counts 0;
      Hashtbl.reset st.registered;
      List.iter (fun (s, v) -> Hashtbl.replace st.registered s v)
        (Dec.list d (fun d ->
             let s = Dec.string d in
             let v = Dec.float_array d in
             (s, v))))
    t.ids
