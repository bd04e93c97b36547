(** Locality bookkeeping for the HIRE cost model (Appendix A).

    Two metrics steer placements towards the subtrees that already host
    related tasks:

    - [Task_census] — the per-subtree running-task counters the paper's
      N nodes maintain ("a map containing a counter for the running
      tasks of a task group in the subtree rooted at N");
    - [upsilon] — the recursive server-locality metric Υ (Eq. 6):
      roughly, the average number of related tasks *not* covered by each
      child subtree (lower = better co-location);
    - [Gain] — the INC-locality gain Γ of Alg. 1: a decaying
      breadth-first propagation of a gain γ from every switch hosting a
      related task ([IncLocProp]), kept as one row per source switch
      and summed per related set. *)

module Fat_tree = Topology.Fat_tree

(** Counts of running/placed tasks per task group, indexed by subtree. *)
module Task_census : sig
  type t

  val create : Fat_tree.t -> t

  (** [add t ~tg_id ~machine] records one task of [tg_id] running on
      [machine] (a server for server groups, a switch for network
      groups). *)
  val add : t -> tg_id:int -> machine:int -> unit

  (** [remove t ~tg_id ~machine] undoes one {!add}.  A group whose last
      task leaves is dropped, so the census holds only groups with
      running tasks. *)
  val remove : t -> tg_id:int -> machine:int -> unit

  (** Tasks of the group running inside the subtree rooted at [node].
      Test hook: outside this module only the tests read the ToR, pod
      and core roll-ups, which Υ and Γ consume but do not show. *)
  val count_under : t -> tg_id:int -> node:int -> int

  val total : t -> tg_id:int -> int

  (** Machines hosting tasks of the group, with counts, in machine
      order.  Test hook: the census encodes these pairs itself, and
      the tests derive the rollups and {!switch_tasks} from them. *)
  val machines : t -> tg_id:int -> (int * int) list

  (** Tasks of the group running on switches: the sum of {!machines}'
      counts at switches, kept up to date by {!add} and {!remove}. *)
  val switch_tasks : t -> tg_id:int -> int

  (** [iter_switches t ~tg_id f] calls [f] once on every switch hosting
      a task of the group, in no fixed order. *)
  val iter_switches : t -> tg_id:int -> (int -> unit) -> unit

  (** [iter_tors t ~tg_id f] calls [f] once on every ToR whose subtree
      (its servers and itself) holds a task of the group, in no fixed
      order: the ToRs where {!count_under} is above 0. *)
  val iter_tors : t -> tg_id:int -> (int -> unit) -> unit

  (** Drop a group, as a checkpoint restore ({!decode_state}) drops one
      the snapshot lacks.  Test hook: the census drops a group itself
      only when its last task is removed; tests drop one that still has
      tasks to take its {!stamp} back to 0 mid-run. *)
  val clear_group : t -> tg_id:int -> unit

  (** Change stamp of a group: 0 while the group is absent (never
      added, its last task removed, cleared, or dropped by
      {!decode_state}); otherwise the
      value of a census-wide counter at the group's last {!add},
      {!remove} or decode.  The counter only grows, so a group whose
      stamp reads the same as before has the same counts as before,
      and one cleared and re-added reads a stamp it never had. *)
  val stamp : t -> tg_id:int -> int

  (** Journal-checkpoint serialization (docs/JOURNAL.md): canonical
      encoding of the (machine, count) pairs per group; restore rebuilds
      the subtree rollups through {!add}, replacing the current
      contents. *)
  val encode_state : t -> Prelude.Codec.Enc.t -> unit

  (** @raise Prelude.Codec.Error on malformed input, including a
      machine id outside the topology. *)
  val decode_state : t -> Prelude.Codec.Dec.t -> unit
end

(** [upsilon topo census ~tg_ids ~group_size] stages Υ for the union
    of the given (related) task groups: the returned closure gives Υ at
    a node, normalized to [\[0,1\]] by [group_size] (so 1 = no related
    task in any child subtree, 0 = all of them under every child).  For
    a server node it degrades to the fraction of related tasks not on
    that server.

    The closure reads [census] on demand and memoizes the value of
    every node it computes, switches and servers alike.  Those values
    depend only on the counts of [tg_ids], so the closure stays exact
    while none of their {!Task_census.stamp}s moves, and may be shared
    by every task group with the same related ids, in one build or
    across builds ({!Flow_network.builder} does so).  After any of
    those stamps moves it must not be queried again.  A subtree holding
    no related task is answered from the census rollup without a walk,
    so one closure queried at many nodes costs in proportion to where
    the related tasks are, not to the topology. *)
val upsilon :
  Fat_tree.t -> Task_census.t -> tg_ids:int list -> group_size:int -> int -> float

(** INC-locality gains (Alg. 1). *)
module Gain : sig
  type t

  (** No source: 0 everywhere. *)
  val empty : t

  (** [of_source topo ~source ~gamma ~xi] runs IncLocProp from the
      switch [source], with initial gain [gamma] and decay divisor
      [xi > 1]: a switch [d] switch-switch hops away gets [gamma]
      divided [d] times by [xi] (integer division), until that is 0.
      It depends on nothing but its arguments, so a caller may keep it
      and sum it into every Γ with that source. *)
  val of_source : Fat_tree.t -> source:int -> gamma:int -> xi:int -> t

  (** Γ of a set of source switches: the sum of their {!of_source}
      rows (one each; the order does not matter, integer sums are
      exact).  [sum []] is {!empty}, [sum [r]] is [r]. *)
  val sum : t list -> t

  (** Accumulated Γ at a node (0 if never reached, and at servers).
      Test hook: the builder reads only {!normalized}, which hides the
      integer gains that the tests check. *)
  val at : t -> int -> int

  (** Γ normalized to [\[0,1\]]: 1 = maximum accumulated gain among all
      nodes, 0 = none.  Returns 0 everywhere when no source exists. *)
  val normalized : t -> int -> float
end
