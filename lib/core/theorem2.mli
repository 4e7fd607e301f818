(** Theorem 2, executed step by step.

    The theorem: no algorithm solves k-set agreement for
    k ≤ (n−1)/(n−f) in a system with synchronous processes,
    asynchronous communication, one-step atomic broadcast and atomic
    receive+send — even when f−1 of the f faults are initial crashes
    and only one process can crash during the execution.

    {!demonstrate} replays the proof against a concrete algorithm
    (by default the paper's own protocol, pushed beyond its
    guarantee):

    - builds the witness partition D{_1}, …, D{_(k−1)} of ℓ = n−f
      processes each (checking Lemma 3's size facts);
    - checks Lemma 4 constructively:
      \{D{_1}, …, D{_(k−1)}, D̄\}-independence of the algorithm;
    - produces a (dec-D)∧(dec-D̄) witness run with the {e partition}
      adversary — whose round-robin scheduling keeps processes
      synchronous (Φ = n), so the run is admissible in the strong
      model, which is verified with {!Ksa_sim.Model_check};
    - evaluates conditions (A)–(D) of Theorem 1 (condition (C) from
      the encoded [11, Table I] fact that asynchronous communication
      plus one live crash makes consensus impossible in ⟨D̄⟩). *)

type result = {
  partition : Partitioning.t;
  lemma3 : bool;  (** |D{_i}| = n−f and |D̄| ≥ n−f+1. *)
  lemma4 : bool;  (** \{D{_1},…,D{_(k−1)},D̄\}-independence, exhibited. *)
  witness : Ksa_sim.Run.t option;
      (** The (dec-D)∧(dec-D̄) run produced by the partition
          adversary under round-robin (synchronous-processes)
          scheduling. *)
  witness_admissible : (unit, string) Stdlib.result;
      (** {!Ksa_sim.Model_check} verdict of the witness in
          {!Ksa_sim.Model.theorem2}. *)
  report : Theorem1.report;  (** Conditions (A)–(D). *)
  theorem_applies : bool;  (** Everything above holds. *)
}

val demonstrate : n:int -> f:int -> k:int -> (result, string) Stdlib.result
(** The Section VI protocol with L = n−f.  [Error] when (n, f, k) is
    outside Theorem 2's region (k(n−f)+1 > n) — there is then nothing
    to demonstrate. *)
