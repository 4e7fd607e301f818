(** The experiment harness: one entry per experiment of DESIGN.md
    (E1–E9), each regenerating a paper claim as a printed table plus a
    machine-checkable verdict.

    The paper has no measured tables or figures — its quantitative
    content is the set of solvability borders and constructions.  Each
    experiment therefore pairs the {e predicted} border (from
    {!Border}) with {e behavioural evidence} produced by the simulator
    (witness runs, screenings, pasted executions, validated
    histories), and reports whether they agree. *)

type verdict = { id : string; claim : string; holds : bool; detail : string }

val pp_verdict : Format.formatter -> verdict -> unit

val e1_theorem2 : ?n_max:int -> Format.formatter -> verdict
(** Theorem 2 / Corollary 5: for every (n, f) with n ≤ n_max and the
    formula's largest impossible k ≥ 2, the Theorem-1 screen on the
    paper's own protocol (L = n−f) finds a (dec-D)∧(dec-D̄) witness;
    where the formula says nothing (k = 1 region only), the partition
    adversary stays within bounds.  Prints one row per (n, f). *)

val e2_theorem8 : ?n_max:int -> ?seeds:int -> Format.formatter -> verdict
(** Theorem 8: on the solvable side (kn > (k+1)f) the protocol
    decides ≤ k values for every tried schedule and dead-set; at the
    border (kn = (k+1)f) the Lemma-12 pasting produces k+1 distinct
    decisions.  Prints the (n, f) grid with measured max decisions. *)

val e3_protocol_cost : ?sizes:int list -> ?seeds:int -> Format.formatter -> verdict
(** Section VI protocol cost: steps and messages to global decision
    as n grows (f = ⌊n/3⌋), plus the distinct-decision count against
    the ⌊n/L⌋ bound. *)

val e4_graph_lemmas : ?samples:int -> ?n:int -> Format.formatter -> verdict
(** Lemmas 6–7 at scale: random digraphs with minimum in-degree δ;
    measured source-component counts and sizes against the bounds. *)

val e5_theorem10 : ?n_max:int -> Format.formatter -> verdict
(** Theorem 10 / Corollary 13: for each n and 2 ≤ k ≤ n−2 the
    Lemma-12 construction drives Synod (correct for k = 1) to k
    distinct decisions under a validated (Σ{_k}, Ω{_k}) history; for
    k = 1, Synod reaches consensus across seeds and crash patterns. *)

val e6_coverage : ?n_max:int -> Format.formatter -> verdict
(** Improvement over Bouzid–Travers: counts of (n, k) pairs covered
    by 2k² ≤ n versus 2 ≤ k ≤ n−2, per n. *)

val e7_lemma9 : ?samples:int -> Format.formatter -> verdict
(** Lemma 9 statistically: random partitions/failure patterns; every
    generated (Σ'{_k}, Ω'{_k}) history validates as (Σ{_k}, Ω{_k}). *)

val e8_screening : Format.formatter -> verdict
(** The screening story: flawed candidate caught, sound protocol
    passes, the paper's protocol outside its regime caught. *)

val e9_independence : Format.formatter -> verdict
(** T-independence taxonomy (Section IV): which classic families each
    algorithm satisfies, against the paper's classification. *)

val e10_round_models : ?seeds:int -> Format.formatter -> verdict
(** The Discussion's conjecture that Theorem 1 applies to round
    models: in the Heard-Of substrate, a partitioned assignment
    drives both min-flooding and UniformVoting (safe under no-split)
    to one decision per group, with each group state-identical to its
    solo execution; under no-split plus eventual completeness the
    same algorithms reach consensus. *)

val e11_fd_implementation : ?seeds:int -> Format.formatter -> verdict
(** Ablation for the partial-synchrony failure-detector
    implementations ({!Ksa_fd.Impl}): sweep the sliding-window size
    and report how often the extracted Σ and Ω histories validate
    against Definitions 4 and 5, plus the end-to-end check that the
    extracted pair drives Synod to consensus.  Windows shorter than a
    post-GST gossip lap (≈ 2n) lose liveness; wide windows always
    validate. *)

val e12_flp_gap : Format.formatter -> verdict
(** The gap between Theorems 2 and 8, exhibited exhaustively: at
    (n, f, k) = (3, 1, 1), consensus is solvable with one {e initial}
    crash (the whole schedule space of the Section VI protocol is
    safe and every path can decide) yet impossible with one
    {e anytime} crash — the crash-adversarial explorer finds a
    reachable configuration from which no continuation reaches
    decision-completeness (the FLP phenomenon behind condition
    (C)). *)

val e13_shared_memory : ?seeds:int -> Format.formatter -> verdict
(** The shared-memory substrate of Theorem 10(C)'s appeal to [9]:
    ABD register emulation over the message-passing simulator with
    majority (Σ-style) quorums.  Torture scripts (write, read-all,
    write, read-all) under fair and lossy schedules with minority
    crashes; every extracted operation history must pass the
    atomicity checker. *)

val e14_fault_models : ?max_configs:int -> Format.formatter -> verdict
(** The (n, k, t, model) solvability border at n = 3, swept
    exhaustively per cell with the crash-adversarial explorer under
    each {!Ksa_sim.Fault_model}: kset_flp waiting for [n - t] reports,
    [k] in 1..3, budget [t] in 0..2.  Asserts (1) the crash column
    traces the paper's [k * n > (k + 1) * t] border exactly,
    (2) Byzantine corruption is nowhere more permissive than crashing
    at equal budget (corruption subsumes crashing), and (3) it is
    strictly {e less} permissive somewhere — the forged
    predecessor-free report at (n, k, t) = (3, 1, 1) breaks the
    agreement crash faults can only get stuck on. *)

val table : (string * (Format.formatter -> verdict)) list
(** Every experiment above at its default sizes, by id ("E1" to
    "E14"), in order. *)

val all : ?only:string list -> Format.formatter -> verdict list
(** Runs the experiments of {!table} whose ids are in [only] (default
    every one), in order, printing their tables and then one summary
    line per verdict. *)

val exit_code : verdict list -> int
(** 0 when every verdict holds, else 1 (a MISMATCH): the exit status
    of [ksa experiments]. *)
