(** T-independence (Section IV, Definition 6).

    An algorithm is T-independent in M if for every S ∈ T there is a
    run in which the processes of S receive messages only from S until
    every member of S has decided or crashed.  The notion subsumes the
    classic progress conditions: wait-freedom gives (strong)
    2{^Π}-independence, f-resilience gives
    \{S : |S| ≥ n−f\}-independence, obstruction-freedom gives
    singleton-independence, and asymmetric conditions are expressible
    (Observation 1 and the examples after it).

    The checker is constructive: for each S it builds the confining
    adversary (S receives only from S; everyone else runs normally)
    and reports whether the members of S all decide — exhibiting the
    required run, or the budget-bounded failure to do so. *)

module Pid = Ksa_sim.Pid

type verdict = {
  set : Pid.t list;
  independent : bool;  (** A confined run in which all of S decided was exhibited. *)
  steps : int;  (** Steps of the exhibited (or attempted) run. *)
}

val check_set :
  ?fd:Ksa_sim.Fd_view.oracle ->
  ?pattern:Ksa_sim.Failure_pattern.t ->
  ?inputs:Ksa_sim.Value.t array ->
  ?max_steps:int ->
  (module Ksa_sim.Algorithm.S) ->
  n:int ->
  set:Pid.t list ->
  verdict

val check_set_strong :
  ?fd:Ksa_sim.Fd_view.oracle ->
  ?pattern:Ksa_sim.Failure_pattern.t ->
  ?inputs:Ksa_sim.Value.t array ->
  ?max_steps:int ->
  (module Ksa_sim.Algorithm.S) ->
  n:int ->
  set:Pid.t list ->
  verdict
(** {e Strong} T-independence (the second clause of Definition 6):
    there is a run in which the processes of S {e eventually} receive
    only from S and still all decide (or crash).  The definition asks
    for one such run; we exhibit one for {e every} sampled prefix
    length ([[0; 3; 10; 25]]; prefix steps are round-robin
    with full delivery, confinement afterwards), which is a sufficient
    check strictly stronger than the bare existential.  With prefix 0
    included, a strong verdict subsumes the plain one
    (Observation 1(a)). *)

val check_family :
  ?fd:Ksa_sim.Fd_view.oracle ->
  ?pattern:Ksa_sim.Failure_pattern.t ->
  ?inputs:Ksa_sim.Value.t array ->
  ?max_steps:int ->
  (module Ksa_sim.Algorithm.S) ->
  n:int ->
  family:Pid.t list list ->
  verdict list

val satisfies :
  ?fd:Ksa_sim.Fd_view.oracle ->
  ?pattern:Ksa_sim.Failure_pattern.t ->
  ?max_steps:int ->
  (module Ksa_sim.Algorithm.S) ->
  n:int ->
  family:Pid.t list list ->
  bool
(** All sets of the family pass. *)

(** {1 Classic families} *)

val wait_free_family : n:int -> Pid.t list list
(** All nonempty subsets of Π (2{^n}−1 sets — small n only). *)

val f_resilient_family : n:int -> f:int -> Pid.t list list
(** \{S ⊆ Π : |S| ≥ n−f\}. *)

val obstruction_free_family : n:int -> Pid.t list list
(** All singletons. *)

val asymmetric_family : n:int -> anchor:Pid.t -> Pid.t list list
(** \{S : \{anchor\} ⊆ S ⊆ Π\} — wait-freedom of one process, the
    asymmetric example after Observation 1. *)

val subfamily_monotone : Pid.t list list -> Pid.t list list -> bool
(** Observation 1(b)'s hypothesis: T' ⊆ T (as set inclusion of
    families). *)
