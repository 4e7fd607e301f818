(** Executing a Heard-Of algorithm under an HO assignment.

    The engine is round-synchronous by construction: round r consists
    of every process producing its message from its round-(r−1) state,
    then every process transitioning on the messages of its HO set.
    Determinism is total — an outcome is a pure function of
    (algorithm, n, inputs, assignment, rounds). *)

module Make (A : Ho_algorithm.S) : sig
  type outcome = {
    n : int;
    inputs : Ksa_sim.Value.t array;
    rounds_run : int;
    decisions : (Ksa_sim.Pid.t * Ksa_sim.Value.t * int) list;
        (** (process, value, deciding round), sorted by pid. *)
    trace : Ksa_sim.Trace.t;
        (** Per-process interned state-id sequences: [init_ids] are
            the initial states, step row entry r−1 is the state after
            round r (with the decision, if made in that round).  Ids
            come from the same {!Ksa_prim.Intern.states} registry the
            asynchronous engine uses, so HO outcomes and asynchronous
            runs of the same algorithm compare exactly — the
            indistinguishability instrument, shared across
            substrates. *)
  }

  exception Double_decision of Ksa_sim.Pid.t

  val run :
    ?corrupt:
      (round:int ->
      src:Ksa_sim.Pid.t ->
      dst:Ksa_sim.Pid.t ->
      A.message ->
      A.message) ->
    n:int ->
    inputs:Ksa_sim.Value.t array ->
    assignment:Assignment.t ->
    rounds:int ->
    unit ->
    outcome
  (** [corrupt] is the HO rendering of {!Ksa_sim.Fault_model.Byzantine}:
      it rewrites each received message per [(round, src, dst)], so a
      corrupted sender can equivocate — show different receivers
      different contents in the same round — while honest senders are
      passed through (the hook returns the message unchanged).  Budget
      discipline (at most [t] distinct corrupted [src]s) is the
      caller's obligation, exactly as for the asynchronous
      {!Ksa_sim.Adversary.action.Forging_step}.  Omitting [corrupt] is
      byte-for-byte the old engine. *)

  val decided_values : outcome -> Ksa_sim.Value.t list
  (** Distinct, sorted. *)

  val distinct_decisions : outcome -> int

  val all_decided : outcome -> bool

  val states_equal_until_decision :
    outcome -> outcome -> Ksa_sim.Pid.t -> bool
  (** The HO rendering of Definition 2: the process traverses the same
      state sequence in both outcomes up to (and including) its
      deciding round — exact interned-id comparison, delegating to
      {!Ksa_sim.Trace.indistinguishable_for}. *)
end
