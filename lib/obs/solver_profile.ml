type t = {
  solver : string;
  nodes : int;
  arcs : int;
  augmentations : int;
  phases : int;
  pushes : int;
  relabels : int;
  scratch_reused : bool;
  stages : (string * float) list;
  wall_s : float;
}

let zero ~solver =
  {
    solver;
    nodes = 0;
    arcs = 0;
    augmentations = 0;
    phases = 0;
    pushes = 0;
    relabels = 0;
    scratch_reused = false;
    stages = [];
    wall_s = 0.0;
  }

let emit t =
  Trace.emit "solver_profile"
    ([
       ("solver", Trace.Str t.solver);
       ("nodes", Trace.Int t.nodes);
       ("arcs", Trace.Int t.arcs);
       ("augmentations", Trace.Int t.augmentations);
       ("phases", Trace.Int t.phases);
       ("pushes", Trace.Int t.pushes);
       ("relabels", Trace.Int t.relabels);
       ("scratch_reused", Trace.Bool t.scratch_reused);
       ("wall_s", Trace.Float t.wall_s);
     ]
    @ List.map (fun (name, s) -> ("stage." ^ name, Trace.Float s)) t.stages);
  Registry.incr (Registry.counter "flow.solves");
  Histogram.observe (Registry.histogram "flow.solve_s") t.wall_s
