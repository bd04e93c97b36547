type counter = { mutable c : int }
type gauge = { mutable g : float }

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 32
let histograms_tbl : (string, Histogram.t) Hashtbl.t = Hashtbl.create 32

let counter name =
  match Hashtbl.find_opt counters_tbl name with
  | Some c -> c
  | None ->
      let c = { c = 0 } in
      Hashtbl.add counters_tbl name c;
      c

let incr ?(by = 1) c = c.c <- c.c + by

let gauge name =
  match Hashtbl.find_opt gauges_tbl name with
  | Some g -> g
  | None ->
      let g = { g = 0.0 } in
      Hashtbl.add gauges_tbl name g;
      g

let set g v = g.g <- v

let histogram name =
  match Hashtbl.find_opt histograms_tbl name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add histograms_tbl name h;
      h

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () = sorted_bindings counters_tbl (fun c -> c.c)
let gauges () = sorted_bindings gauges_tbl (fun g -> g.g)
let histograms () = sorted_bindings histograms_tbl (fun h -> h)

let reset () =
  Hashtbl.reset counters_tbl;
  Hashtbl.reset gauges_tbl;
  Hashtbl.reset histograms_tbl

let pp_summary fmt () =
  List.iter (fun (name, v) -> Format.fprintf fmt "%-40s %d@." name v) (counters ());
  List.iter (fun (name, v) -> Format.fprintf fmt "%-40s %.6g@." name v) (gauges ());
  List.iter
    (fun (name, h) ->
      if Histogram.count h > 0 then Format.fprintf fmt "%-40s %a@." name Histogram.pp_summary h)
    (histograms ())
