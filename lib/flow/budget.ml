module Clock = Prelude.Clock

type t = { max_wall_s : float option; max_steps : int option }

let unlimited = { max_wall_s = None; max_steps = None }
let make ?max_wall_s ?max_steps () = { max_wall_s; max_steps }

let pp fmt b =
  match (b.max_wall_s, b.max_steps) with
  | None, None -> Format.pp_print_string fmt "unlimited"
  | Some w, None -> Format.fprintf fmt "wall<=%.6fs" w
  | None, Some s -> Format.fprintf fmt "steps<=%d" s
  | Some w, Some s -> Format.fprintf fmt "wall<=%.6fs,steps<=%d" w s

type reason = Wall_clock of float | Steps of int | Injected

let pp_reason fmt = function
  | Wall_clock s -> Format.fprintf fmt "wall-clock budget exhausted (%.6fs)" s
  | Steps n -> Format.fprintf fmt "step budget exhausted (%d steps)" n
  | Injected -> Format.pp_print_string fmt "injected exhaustion (solve.exhaust)"

type state = {
  budget : t;
  started : float;
  mutable steps : int;
  mutable handicap_s : float;
  mutable forced : bool;
  mutable exhausted : reason option;  (* sticky verdict *)
}

let start budget =
  (* Only sample the clock when a wall cap can ever need it. *)
  let started = match budget.max_wall_s with Some _ -> Clock.now () | None -> 0.0 in
  { budget; started; steps = 0; handicap_s = 0.0; forced = false; exhausted = None }

let spend st n = st.steps <- st.steps + n
let steps st = st.steps

let inject st =
  (match Failpt.eval "solve.exhaust" with Some Failpt.Trip -> st.forced <- true | _ -> ());
  match Failpt.eval "solve.delay" with
  | Some (Failpt.Delay s) -> st.handicap_s <- st.handicap_s +. s
  | _ -> ()

let for_solve ?budget () =
  Option.map
    (fun b ->
      let st = start b in
      inject st;
      st)
    budget

let check st =
  match st.exhausted with
  | Some _ as r -> r
  | None ->
      let verdict =
        if st.forced then Some Injected
        else
          match st.budget.max_steps with
          | Some m when st.steps >= m -> Some (Steps m)
          | _ -> (
              match st.budget.max_wall_s with
              | Some m when Clock.elapsed_since st.started +. st.handicap_s >= m ->
                  Some (Wall_clock m)
              | _ -> None)
      in
      st.exhausted <- verdict;
      verdict
