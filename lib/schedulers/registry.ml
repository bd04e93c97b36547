let names =
  [
    "hire";
    "hire-simple";
    "hire-scaling";
    "hire-noloc";
    "hire-noshare";
    "yarn-concurrent";
    "yarn-timeout";
    "k8-concurrent";
    "k8-timeout";
    "sparrow-concurrent";
    "sparrow-timeout";
    "coco-timeout";
  ]

let create ?resilience ?(incremental = true) ?reopt:_ ?(portfolio = false) name
    ~seed cluster =
  if portfolio then
    invalid_arg "Registry.create: ~portfolio:true is not supported, the solver race was removed";
  match name with
  | "hire" -> Hire_adapter.create ?resilience ~incremental cluster
  | "hire-simple" ->
      Hire_adapter.create ~simple_flavor:true ?resilience ~incremental cluster
  | "hire-scaling" ->
      Hire_adapter.create ~solver:Hire.Flow_network.Cost_scaling ?resilience ~incremental
        ~name:"hire-scaling" cluster
  | "hire-noloc" ->
      Hire_adapter.create
        ~params:{ Hire.Cost_model.default_params with locality_aware = false }
        ?resilience ~incremental ~name:"hire-noloc" cluster
  | "hire-noshare" ->
      (* Ablation: the scheduler neither plans for nor physically uses
         switch-resource sharing. *)
      Hire_adapter.create
        ~params:{ Hire.Cost_model.default_params with sharing_aware = false }
        ~shared:false ?resilience ~incremental ~name:"hire-noshare" cluster
  | "yarn-concurrent" -> Yarn_pp.create ~mode:Modes.Concurrent cluster
  | "yarn-timeout" -> Yarn_pp.create ~mode:Modes.Timeout cluster
  | "k8-concurrent" -> K8_pp.create ~mode:Modes.Concurrent cluster
  | "k8-timeout" -> K8_pp.create ~mode:Modes.Timeout cluster
  | "sparrow-concurrent" -> Sparrow_pp.create ~mode:Modes.Concurrent ~seed cluster
  | "sparrow-timeout" -> Sparrow_pp.create ~mode:Modes.Timeout ~seed cluster
  | "coco-timeout" -> Coco_pp.create cluster
  | other -> invalid_arg (Printf.sprintf "Registry.create: unknown scheduler %S" other)
