(** Indistinguishability of runs (Definitions 2 and 3).

    Two runs are indistinguishable {e until decision} for a process p
    if p goes through the same sequence of local states in both until
    it decides.  Both engines record runs as a {!Ksa_sim.Trace.t} —
    per-process sequences of state ids interned in the shared
    {!Ksa_prim.Intern.states} registry — and the comparison here is
    exact: the registry resolves hash collisions with structural
    equality, so equal id sequences hold {e iff} the underlying state
    sequences are structurally equal.  There is no collision caveat,
    and the predicate is substrate-neutral (asynchronous runs and
    Heard-Of runs of the same algorithm compare directly). *)

module Run = Ksa_sim.Run
module Pid = Ksa_sim.Pid

val for_process : Run.t -> Run.t -> Pid.t -> bool
(** α ∼ β for p: equal state traces until decision (exact interned-id
    equality, delegating to {!Ksa_sim.Trace.indistinguishable_for}).
    If p decides in both runs, the prefixes up to and including the
    deciding step must coincide; if it decides in neither, the
    recorded traces must agree up to the shorter one's length
    (finite-prefix approximation). *)

val for_all : Run.t -> Run.t -> Pid.t list -> bool
(** α {^D}∼ β (Definition 2): indistinguishable for every process of
    D. *)

val compatible : Run.t list -> Run.t list -> d:Pid.t list -> bool
(** R' ≼{_D} R (Definition 3): every run of R' has a D-indistinguishable
    counterpart in R. *)
