(** Theorem 1, executable.

    The theorem: if a k-set agreement algorithm A for M admits runs
    satisfying (dec-D) — the k−1 groups D{_1} … D{_(k−1)} decide k−1
    distinct values proposed inside D while D̄ hears nothing from D
    until everyone in D̄ decided ((dec-D̄)) — and conditions (B)–(D)
    relate those runs to the restricted system M' = ⟨D̄⟩ in which
    consensus is unsolvable, then A does not solve k-set agreement.

    The paper's Remarks advertise the theorem as a cheap screening
    tool: "if (dec-D) can be satisfied in some runs, the algorithm is
    very likely flawed, as the remaining conditions are typically easy
    to construct in sufficiently asynchronous systems."  This module
    implements exactly that: {!screen} hunts for a (dec-D)∧(dec-D̄)
    witness with a portfolio of partition-shaped adversaries, and
    {!evaluate} additionally checks executable counterparts of
    conditions (B) and (D) on the collected runs and reports (C) from
    the border arithmetic. *)

module Run = Ksa_sim.Run
module Pid = Ksa_sim.Pid
module Value = Ksa_sim.Value

val dec_d : Run.t -> partition:Partitioning.t -> Value.t list option
(** (dec-D) witness: distinct values v{_1} … v{_(k−1)}, each proposed
    by a process of D and decided by a process of D{_i} — found by
    backtracking over a system of distinct representatives.  [None]
    if the run does not satisfy (dec-D). *)

val dec_dbar : Run.t -> partition:Partitioning.t -> bool
(** (dec-D̄): every process of D̄ decides, and receives no message
    from D until after the last D̄ decision. *)

type witness = {
  run : Run.t;
  values : Value.t list;  (** The distinct (dec-D) values. *)
  adversary : string;  (** Which portfolio strategy produced it. *)
}

type portfolio = {
  r_d : Run.t list;  (** Collected runs satisfying (dec-D). *)
  r_d_dbar : Run.t list;  (** … satisfying both (dec-D) and (dec-D̄). *)
  witness : witness option;  (** First run satisfying both. *)
  runs_tried : int;
}

val screen :
  ?fd:Ksa_sim.Fd_view.oracle ->
  ?pattern:Ksa_sim.Failure_pattern.t ->
  ?inputs:Value.t array ->
  ?max_steps:int ->
  (module Ksa_sim.Algorithm.S) ->
  partition:Partitioning.t ->
  portfolio
(** Runs the adversary portfolio (sequential-solo in both group
    orders, partition-with-delays) on the given algorithm with
    distinct inputs by default, classifying every produced run. *)

type c_witness =
  [ `Trapped of Pid.t list * Pid.t list
    (** (extra crashes beyond the initially-dead D, stranded undecided
        processes of D̄): a reachable configuration of the restricted
        subsystem from which no continuation decides — the FLP-style
        trap condition (C)'s arithmetic predicts, found exhaustively. *)
  | `Subsystem_decides
    (** The exhaustive subsystem search found no trap: every reachable
        configuration can still reach decision-completeness. *)
  | `Inconclusive of string ]

type report = {
  portfolio : portfolio;
  condition_a : bool;  (** R(D) ≠ ∅ (some run satisfies (dec-D)). *)
  condition_b : bool;
      (** R(D) ≼{_D̄} R(D,D̄) over the collected runs (Definition 3
          via exact interned state-trace indistinguishability). *)
  condition_c : bool;
      (** Consensus unsolvable in M' = ⟨D̄⟩, from the border
          arithmetic given the subsystem crash budget. *)
  condition_c_witness : c_witness option;
      (** Constructive corroboration of (C) by the crash-adversarial
          explorer run on the subsystem (Π∖D̄ initially dead);
          [None] unless [evaluate ~exhaustive_c:true]. *)
  condition_d : bool;
      (** Validated by construction: the restricted algorithm A|D̄
          run in ⟨D̄⟩ is reproduced, state-for-state for D̄, by a
          full-system run in which Π∖D̄ is initially dead. *)
  verdict : [ `Not_a_kset_algorithm | `No_witness ];
      (** [`Not_a_kset_algorithm]: all four conditions hold, so by
          Theorem 1 the algorithm does not solve k-set agreement in
          any model admitting these runs. *)
}

val evaluate :
  ?fd:Ksa_sim.Fd_view.oracle ->
  ?pattern:Ksa_sim.Failure_pattern.t ->
  ?inputs:Value.t array ->
  ?max_steps:int ->
  ?seeds:int list ->
  ?exhaustive_c:bool ->
  subsystem_crash_budget:int ->
  (module Ksa_sim.Algorithm.S) ->
  partition:Partitioning.t ->
  report
(** [~exhaustive_c] (default false) additionally runs the exhaustive
    constructive check of condition (C) and records the result in
    [condition_c_witness]: it explores the system with D initially
    dead and up to [subsystem_crash_budget] adversarial crashes in D̄,
    at most 500,000 configurations,
    classifying whether the algorithm can be trapped ([`Trapped]).
    It is skipped for failure-detector algorithms, which the explorer
    cannot soundly deduplicate. *)

val pp_report : Format.formatter -> report -> unit
