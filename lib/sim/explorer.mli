(** Bounded exhaustive exploration of the schedule space (a small
    model checker).

    For small systems this enumerates {e every} run prefix an
    asynchronous adversary can produce — every interleaving of process
    steps and every admissible delivery choice — and checks a safety
    predicate on the decision set of every reachable configuration.
    Possibility claims (e.g. "the Section VI protocol never produces
    more than k distinct decisions when kn > (k+1)f") are validated
    against this space rather than against sampled schedules.

    Soundness of the state-space deduplication requires future
    behaviour to be determined by the semantic configuration alone, so
    exploration is restricted to failure-detector-free algorithms and
    failure patterns whose crashes are all initial (both engines raise
    {!Not_explorable} otherwise); the engine folds each delivered
    batch in canonical (sender, payload) order — see
    {!Engine.Make.init} — which makes the set of reachable
    configuration keys independent of the traversal order.  Each
    driver therefore reports identical statistics and verdicts at
    every domain count whenever no budget truncates the search.

    Every driver takes a {!Canon.reduction}: [Symmetry] switches
    admission to orbit keys (plus the algorithm's canon hooks, applied
    by the engine as states and messages are produced).  It preserves
    verdicts and the decision-value oracle (soundness argument in
    DESIGN.md); the configuration counts shrink — that is the point —
    so cross-{e mode} stats differ while domain-count parity within a
    mode still holds exactly.

    {b Domains, checkpoints and supervision.}  Both engines run on one
    driver.  [domains] (default 1) worker domains admit configurations
    against one shared {!Ksa_prim.Shardset} table whose ticket-clamped
    admission is atomic per key, so every reachable configuration is
    admitted and expanded exactly once, and move the frontier through
    work-stealing pools.  Whenever no budget truncates, verdict and
    stats are the same at every domain count.  Worker 0 runs in the
    calling domain, so [d] domains spawn [d − 1] workers ({!fan_out});
    one domain spawns no domain and walks one fixed depth-first order,
    so its truncated stats are deterministic too.  [check] must be
    thread-safe when [domains] exceeds 1.  [ckpt] attaches a
    {!Checkpoint} controller: the driver writes periodic snapshots per
    its sink policy — between steps in the calling domain at one
    domain, through a coordinator domain that parks every worker at
    more — and polls the interrupt; on interruption it flushes a final
    checkpoint and returns a truncated verdict.  A fault raised by a
    checkpoint write or by the interrupt poll leaves the driver once
    every domain it spawned has been joined.
    [resume] is a payload the same driver wrote at any domain count:
    once the interner dumps are restored
    ({!Checkpoint.restore_interners}) the campaign continues at
    [domains] and reports the verdict and stats of an uninterrupted run
    (at one domain on both sides, truncated stats included).  A payload
    written by the other driver, under another [reduction] or under
    another [model] describes a different search: the driver warns on
    stderr and starts fresh.  A worker that dies of a non-verdict
    exception is supervised: its admissions stand (no ticket is
    refunded), the item it was processing goes back in admitted form,
    and its stack goes to the shared pool for survivors — or a
    post-join rescue worker — to drain, so the item is expanded by
    whoever pops it next (after a resume too); the failure is recorded
    in the ledger ([campaign.worker.failures] / [campaign.requeues]). *)

exception Not_explorable of string
(** A campaign the explorer cannot run, raised before the search
    starts: an algorithm with a failure detector, a system too large
    for crashed-set bitmasks, an initially-dead pid out of range, a
    crash after time 0 in the crash-free engine's pattern, or a crash
    engine budget above {!Row.max_nodes}.  The
    explorer raises no other exception for its arguments. *)

type delivery_policy = Engine.delivery_policy =
  | Empty_or_all
      (** At each step a process receives nothing or its whole
          buffer.  Coarsest; misses reorderings within a buffer. *)
  | Per_sender
      (** Nothing, the whole buffer, or exactly the messages of one
          sender.  Captures the distinctions FLP-style protocols can
          make; default. *)
  | All_subsets
      (** Every subset of the buffer (exponential; tiny runs only). *)

type stats = {
  configs_visited : int;
  terminal_runs : int;
      (** Deduplicated configs where every correct process has
          decided, counted once per configuration key. *)
  budget_exhausted : bool;
      (** True if [max_configs] pruned the search — the verdict then
          covers only the explored portion.  Admission is clamped {e at}
          the budget in every driver, so [configs_visited] never
          exceeds [max_configs], and the flag is set only when an
          unseen reachable configuration was actually turned away. *)
}

type outcome =
  | Safe of stats
      (** No reachable explored configuration violates the check.
          When [stats.budget_exhausted] is set this is a statement
          about the explored prefix only — treat it as indeterminate
          for the full space. *)
  | Violation of { decisions : (Pid.t * Value.t * int) list; reason : string; depth : int }

module Mask : sig
  (** Crashed-set bitmasks (pure bit arithmetic, no allocation). *)

  val mem : int -> Pid.t -> bool
  val add : int -> Pid.t -> int
  val to_list : n:int -> int -> Pid.t list
  (** Set pids below [n], ascending. *)

  val popcount : int -> int
  (** Number of set bits (Kernighan's loop — one iteration per set
      bit; correct for any [int], including negative masks). *)

  val compare_lists : int -> int -> int
  (** [compare_lists a b] orders non-negative masks as their ascending
      pid lists ([compare (to_list ~n a) (to_list ~n b)] for any [n]
      above both), without building the lists: the order of the Stuck
      witness's undecided set. *)
end

module Row : sig
  (** An expanded crash-graph node as one byte row: its crashed mask
      and its undecided live pids' mask (little-endian int64 at bytes
      0 and 8), then its successor ids (little-endian int32 from byte
      16).  The node is complete iff its undecided mask is 0. *)

  type t

  val max_nodes : int
  (** [2^31 - 1]: a crash graph's node ids lie below it, so each fits
      an int32 slot. *)

  val make : mask:int -> undecided:int -> int array -> int -> t
  (** [make ~mask ~undecided succs len] is the row of a node whose
      successor ids are [succs.(0 .. len - 1)], each in
      [0 .. max_nodes - 1].  Raises [Invalid_argument] when [len] is
      outside [0 .. Array.length succs]. *)

  val empty : t
  (** The unexpanded slot: no successors, mask 0 and undecided mask
      [-1], which no expanded node has. *)

  val is_empty : t -> bool
  (** The row's undecided mask is negative: it is {!empty}, or a copy
      of it. *)

  val mask : t -> int
  val undecided : t -> int

  val succs : t -> int array
  (** The successor ids, in the order they were written. *)

  val classify : count:int -> (int -> t) -> (int * int) option
  (** [classify ~count row] reads the graph of nodes [0 .. count - 1]
      ([row id] is node [id]'s row; every successor id is below
      [count]) and returns [None] when every node can reach a
      complete node, or else the Stuck witness: the (mask, undecided)
      pair of a node that can reach none, the least by mask and then
      by ascending undecided pid list ({!Mask.compare_lists}).  An
      {!empty} row is a node with no successors that is not
      complete. *)
end

val default_domains : unit -> int
(** Worker domain count used when none is given: the [KSA_DOMAINS]
    environment variable if set to a positive integer, otherwise
    (unset or malformed, ["0"] and ["abc"] included)
    [Domain.recommended_domain_count ()]. *)

val fan_out : domains:int -> stop:(unit -> unit) -> (int -> 'a) -> 'a list
(** [fan_out ~domains ~stop work] runs [work 0] in the calling domain
    and [work 1] … [work (domains − 1)] on spawned domains, and returns
    their results in worker order.  A worker that raises calls [stop],
    which must make the others return soon; every spawned domain is
    joined before the first failure in worker order is re-raised, so
    no domain outlives the call.  Both multi-domain drivers (the
    explorers' and {!Fuzz}'s) run on it. *)

type resilient_outcome =
  | All_paths_decide of stats
      (** From every reachable configuration, a decision-complete
          configuration remains reachable — the algorithm cannot be
          trapped. *)
  | Safety_violation of {
      decisions : (Pid.t * Value.t * int) list;
      reason : string;
    }
  | Stuck of {
      crashed : Pid.t list;
      undecided_correct : Pid.t list;
      stats : stats;
    }
      (** A reachable configuration from which {e no} continuation
          reaches decision-completeness: the crash pattern listed has
          trapped the undecided correct processes — an FLP-style
          non-termination witness.  (In the infinite-run view, every
          fair extension of this configuration violates
          Termination.) *)
  | Indeterminate of stats
      (** The config budget truncated the enumeration before the
          reachable graph was closed, so neither [All_paths_decide]
          nor [Stuck] can be claimed: unexpanded frontier nodes would
          read as stuck, and truly-stuck nodes may lie beyond the
          cut.  [stats.budget_exhausted] is always [true] here; the
          [All_paths_decide] and [Stuck] verdicts conversely imply a
          complete enumeration.  Raise [max_configs] (or shrink the
          system) to get a classified verdict. *)

module Make (A : Algorithm.S) : sig
  val explore :
    ?reduction:Canon.reduction ->
    ?domains:int ->
    ?max_configs:int ->
    ?policy:delivery_policy ->
    ?ckpt:Checkpoint.ctl ->
    ?resume:string ->
    n:int ->
    inputs:Value.t array ->
    pattern:Failure_pattern.t ->
    check:((Pid.t * Value.t * int) list -> string option) ->
    unit ->
    outcome
  (** Depth-first search over all schedules.  [check decisions]
      returns [Some reason] to report a safety violation of the
      current decision set ((process, value, time) triples); the
      shallowest violation found is reported.  [max_configs] is the
      only budget: deduplication by key already cuts every cycle.
      Defaults:
      [domains] 1, [max_configs] 2_000_000, [policy] [Per_sender].
      Domains, [ckpt], [resume] and supervision are as described
      above; on interruption the verdict is [Safe] with
      [budget_exhausted] set. *)

  val explore_with_crashes :
    ?reduction:Canon.reduction ->
    ?model:Fault_model.t ->
    ?domains:int ->
    ?max_configs:int ->
    ?policy:delivery_policy ->
    ?drop_on_crash:bool ->
    ?initially_dead:Pid.t list ->
    ?ckpt:Checkpoint.ctl ->
    ?resume:string ->
    n:int ->
    inputs:Value.t array ->
    crash_budget:int ->
    check:((Pid.t * Value.t * int) list -> string option) ->
    unit ->
    resilient_outcome
  (** Exhaustive exploration where, in addition to scheduling and
      delivery choices, the adversary may crash up to [crash_budget]
      processes at {e any} point (a crashed process takes no further
      steps; with [drop_on_crash], for each crash both the
      keep-messages and the drop-all-its-pending-messages variants are
      explored — the last-step-omission allowance).  Classifies the
      whole reachable space: either every configuration can still
      reach decision-completeness, or a {e stuck} configuration is
      reported — the exhaustive form of the FLP/[11] facts behind
      condition (C), and of the Theorem 2 vs Theorem 8 gap (one
      non-initial crash defeats protocols that tolerate initial
      crashes).  State-space deduplication includes the crashed set
      (as a bitmask folded into the hashed node key), so the search is
      sound for crash-anytime patterns (algorithms with failure
      detectors remain unsupported).  [initially_dead] seeds the
      search with processes dead from time 0 that do {e not} count
      against [crash_budget] — the restricted-subsystem form used by
      the Theorem-1 condition (C) validation; the [crashed] list of a
      {!Stuck} verdict includes them.

      Domains, [ckpt], [resume] and supervision are as described
      above; a node's dense id {e is} its admission ticket, and on
      interruption the verdict is [Indeterminate].  Each expanded node
      is stored as a {!Row}, so [max_configs] (default 300_000) may be
      at most {!Row.max_nodes} ([2^31 - 1]): a larger budget raises
      {!Not_explorable} before the search starts.

      [model] selects the fault model ({!Fault_model.t}).  Under
      [Crash] (the default) the budget is [crash_budget].  Under
      [Byzantine t] the budget is [t] and the masked set is the
      {e corrupted} set: a corrupted process subsumes a crashed one
      (it stops, its in-flight messages may be dropped) and in
      addition each of its messages may be delivered forged to any
      entry of {!Algorithm.S.forge_pool} (in-flight payloads stay as
      sent), per receiver (equivocation).  Byzantine behaviours are a
      strict superset of crash behaviours at equal budget, and at
      budget 0 the node graph is bit-identical to the crash graph.  Under
      [Mobile t] nobody ever crashes; for [t >= 1] any sender's
      in-flight messages may be transiently omitted (one sender per
      expansion — async interleaving composes these into every
      faulty-set trajectory), and at [t = 0] the graph coincides with
      the budget-0 crash graph.  Parity and separation are pinned by
      test/test_byzantine.ml. *)

  val explore_with_crashes_par :
    ?domains:int ->
    ?reduction:Canon.reduction ->
    ?model:Fault_model.t ->
    ?max_configs:int ->
    ?policy:delivery_policy ->
    ?drop_on_crash:bool ->
    ?initially_dead:Pid.t list ->
    ?ckpt:Checkpoint.ctl ->
    ?resume:string ->
    n:int ->
    inputs:Value.t array ->
    crash_budget:int ->
    check:((Pid.t * Value.t * int) list -> string option) ->
    unit ->
    resilient_outcome
  (** {!explore_with_crashes} with [domains] defaulting to
      {!default_domains}.  Kept only for the benchmark's units
      ([ksa_bench/units.ml]) and [bench/main.ml]; it goes with ROADMAP
      item 9. *)

  val reachable_decision_values :
    ?reduction:Canon.reduction ->
    ?model:Fault_model.t ->
    ?max_configs:int ->
    ?policy:delivery_policy ->
    n:int ->
    inputs:Value.t array ->
    crash_budget:int ->
    unit ->
    Value.t list
  (** The set of values decided in some reachable configuration under
      the crash-adversarial exploration: the {e valency} of the
      initial configuration.  Two or more values = bivalent/
      multivalent in FLP's sense. *)
end
