(** Substrate-neutral run traces: per-process sequences of interned
    state ids plus decision records.

    A trace is the operational residue of a run that the paper's
    run-level definitions quantify over: for each process, the exact
    sequence of local states it traversed (as dense ids from the
    shared {!Ksa_prim.Intern.states} registry) and the step at which
    it decided, if any.  Both execution substrates produce the same
    type — the asynchronous engine records one entry per step of a
    process ({!Ksa_sim.Engine.Make.run}), the Heard-Of engine one
    entry per round ({!Ksa_ho.Engine.Make.run}) — so
    indistinguishability (Definition 2), compatibility of run sets
    (Definition 3) and the Theorem 1 machinery built on them evaluate
    identically over either substrate.

    Because ids are interned with structural-equality resolution,
    [state_id] equality holds iff the states are structurally equal:
    comparisons are exact O(1) integer equalities with no hash
    collision caveat (unlike the retired [Marshal]+MD5 digests). *)

type step = {
  state_id : int;  (** Interned post-step (or post-round) local state. *)
  decision : Value.t option;
      (** [Some v] iff the process decided [v] in this step (first
          decision only; re-affirmations are not marked). *)
}

type t = {
  init_ids : int array;
      (** [init_ids.(p)]: interned initial state of process p. *)
  steps : step array array;
      (** [steps.(p)]: chronological steps of process p.  Rows may
          have different lengths (processes step at different
          rates); a row may be empty (a process that never stepped,
          or a trace of a configuration that does not record). *)
}

val n : t -> int
(** Number of processes. *)

val make : init_ids:int array -> steps:step list array -> t
(** Build a trace from per-process chronological step lists (arrays
    are copied). *)

val empty : init_ids:int array -> t
(** A trace with initial states only (no recorded steps). *)

val decided : t -> Pid.t -> bool

val states_until_decision : t -> Pid.t -> int list
(** The state-id sequence of process p up to and including its
    deciding step — initial state first; the whole recorded row if p
    never decides: the sequence Definition 2 compares. *)

val indistinguishable_for : t -> t -> Pid.t -> bool
(** α ∼ β for p (Definition 2, finite-prefix form): p traverses the
    same state sequence in both traces until it decides.  If p
    decides in both, the prefixes up to (and including) the deciding
    steps must be equal — which forces equal deciding step counts; if
    it decides in exactly one, the decided prefix must be a prefix of
    the other trace; if in neither, the rows must agree up to the
    shorter one's length.  Exact integer comparison, O(steps). *)

val equal : t -> t -> bool
(** Structural equality of whole traces (same initial states, same
    rows, same decision marks). *)

val pp : Format.formatter -> t -> unit
