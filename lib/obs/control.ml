(* The enable switch is an atomic because every instrumentation site
   reads it, including code running on [Runner.Pool.Domains] workers, so
   a flip from any domain is published to all of them. *)
let flag = Atomic.make false
let enabled () = Atomic.get flag
let set_enabled b = Atomic.set flag b
let now_wall () = Unix.gettimeofday ()
