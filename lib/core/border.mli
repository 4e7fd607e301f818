(** The solvability/impossibility borders, as arithmetic.

    Every quantitative claim of the paper reduces to an inequality in
    (n, f, k); this module is the single source of truth for them, and
    the experiment tables print them side by side with the behavioural
    evidence produced by the simulator. *)

val theorem2_impossible : n:int -> f:int -> k:int -> bool
(** Theorem 2: k-set agreement is impossible (even with synchronous
    processes, atomic broadcast, and only one non-initial crash) when
    k ≤ (n−1)/(n−f), i.e. [k * (n - f) + 1 <= n].
    Requires [0 <= f < n], [k >= 1]. *)

val max_impossible_k : n:int -> f:int -> int
(** The largest k for which Theorem 2 applies: ⌊(n−1)/(n−f)⌋. *)

val theorem8_solvable : n:int -> f:int -> k:int -> bool
(** Theorem 8: with up to f initially dead processes, k-set agreement
    is solvable iff [k * n > (k + 1) * f].  Checks [0 <= f < n] and
    [k >= 1], then reads the bound from [Ksa_algo.Kset_flp.solvable],
    its one encoding. *)

val min_solvable_k : n:int -> f:int -> int
(** The smallest k solvable with f initial crashes:
    ⌊f/(n−f)⌋ + 1 (equals 1 when f < n/2, consensus regime). *)

val theorem8_initial_impossible : n:int -> f:int -> k:int -> bool
(** The complement of {!theorem8_solvable}: with f {e initial} crashes
    k-set agreement is impossible iff [k * (n - f) <= f] (the
    partitioning argument at the border kn = (k+1)f and below).

    Note the two failure models: Theorem 2 allows one crash {e during}
    the execution (plus f−1 initial), which buys strictly more
    impossibility — its region k(n−f) ≤ n−1 strictly contains this
    one (since f ≤ n−1).  Inside the gap
    f < k(n−f) ≤ n−1, k-set agreement is solvable with f initial
    crashes (Theorem 8) yet impossible if one of the f crashes may be
    non-initial (Theorem 2): the FLP phenomenon, generalized. *)

val theorem2_covers_initial_crash_impossibility : n:int -> f:int -> bool
(** Region inclusion (for property tests): every (k, f) impossible
    with initial crashes is also in Theorem 2's region. *)

val bouzid_travers_impossible : n:int -> k:int -> bool
(** The prior bound ([5], OPODIS'10): k-set agreement with (Σ{_k},Ω{_k})
    impossible when [1 < 2 * k * k <= n] — i.e. k > 1 and 2k² ≤ n. *)

val theorem10_impossible : n:int -> k:int -> bool
(** Theorem 10: with (Σ{_k}, Ω{_k}), impossible for all 2 ≤ k ≤ n−2. *)

val corollary13_solvable : n:int -> k:int -> bool
(** Corollary 13: with (Σ{_k}, Ω{_k}){_(1≤k≤n−1)}, k-set agreement is
    solvable iff k = 1 or k = n−1. *)

val theorem10_strictly_extends_bouzid_travers : n:int -> bool
(** For this n, some k is covered by Theorem 10 but not by [5]
    (always true for n ≥ 4; exposed for E6). *)

val flp_consensus_impossible : n_subsystem:int -> crashes:int -> bool
(** Condition (C) instances: consensus is impossible in an
    asynchronous subsystem of ≥ 2 processes where at least one crash
    may occur (FLP / the [11] Table I cases used in Theorems 2
    and 10). *)

val theorem2_partition_sizes : n:int -> f:int -> k:int -> (int list * int) option
(** When Theorem 2 applies, the partition witness sizes: k−1 groups of
    ℓ = n−f processes and |D̄| = n − (k−1)ℓ ≥ n−f+1 (Lemma 3);
    [None] when the bound does not apply. *)
