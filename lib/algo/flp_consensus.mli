(** The original FLP initial-crash consensus protocol, as the
    L = ⌈(n+1)/2⌉ instance of the generalized Section VI protocol.

    The paper derives its k-set algorithm by generalizing this one
    (Section VI recounts it: wait for L−1 = ⌈(n+1)/2⌉−1 messages in
    stage one, exchange heard-lists in stage two, decide the value of
    the unique initial clique).  With a correct majority (f < n/2
    initial crashes), the knowledge graph's minimum in-degree δ
    satisfies 2δ ≥ n, so the source component is unique (the remark
    after Lemma 7) and every process decides the same value. *)

module For (N : sig
  val n : int
end) : Ksa_sim.Algorithm.S
(** Consensus for a system of exactly [N.n] processes; running it
    with a different engine size is rejected by [init]. *)

val max_initial_crashes : n:int -> int
(** The tolerance ⌈n/2⌉ − 1 (a strict minority): Theorem 8's
    kn > (k+1)f at k = 1. *)
