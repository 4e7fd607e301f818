(** Randomized schedule search with counterexample shrinking.

    Exhaustive exploration ({!Explorer}) certifies small systems but
    cannot reach the sizes the paper's adversary constructions
    quantify over.  The fuzzer fills that gap: it drives an algorithm
    through random engine-validated adversary actions — weighted
    step/deliver/drop choices plus randomly drawn crash times — checks
    run-level properties, and on violation delta-debugs the offending
    schedule down to a 1-minimal counterexample that round-trips
    through {!Trace_io} for replay.

    Determinism is load-bearing, exactly as for {!Ksa_prim.Rng}: trial
    [i] of a campaign is a pure function of the root seed and [i]
    (each trial's generator is derived with {!Ksa_prim.Rng.split_at},
    never by consuming a shared stream), so a campaign fuzzes the
    identical trial corpus and reports the identical first violation
    at every domain count, and a saved counterexample replays to
    the same verdict on any machine. *)

type weights = {
  deliver_all : int;  (** Step a process, delivering its whole buffer. *)
  deliver_some : int;
      (** Step a process, delivering a uniformly random subset. *)
  deliver_none : int;  (** Step a process, delivering nothing. *)
  drop : int;
      (** Drop a random nonempty subset of the pending messages whose
          sender has crashed (weight ignored while none exist). *)
  undecided_bias : int;
      (** Odds of preferring an undecided stepper: the chosen process
          is drawn from the undecided alive ones with probability
          [bias/(bias+1)], from all alive ones otherwise.  [3]
          reproduces {!Adversary.fair}'s 3/4 bias; [0] is uniform. *)
}
(** Relative odds of each action class.  At least one of the step
    weights must be positive; all weights must be non-negative. *)

val fair_weights : weights
(** Deliver-all steps only, no drops, bias 3 — the randomized fair
    schedules of the possibility side, matching {!Adversary.fair}. *)

val default_weights : weights
(** A mixed profile (full, partial and empty deliveries plus
    crash-drops) that exercises out-of-order delivery and message
    loss. *)

type property =
  | K_agreement of int
      (** {!Kset_spec.k_agreement}: at most [k] distinct decision values
          (uniform: decisions of later-crashed processes count).
          Reason: ["N distinct decisions exceed k=K"]. *)
  | Validity
      (** {!Kset_spec.validity}.  Reason: ["decided value V was never
          proposed"]. *)
  | Termination
      (** {!Kset_spec.termination} of a run that exhausted its step
          budget.  Reason: ["correct process undecided after N
          steps"], N the budget.  Only meaningful under weightings
          that keep the schedule fair ({!fair_weights}); an unfair
          random schedule may legitimately starve a process. *)
  | Custom of string * (Run.t -> string option)
      (** Named user predicate: return [Some reason] on violation.  It
          receives a recorded run. *)

val property_name : property -> string

type config = {
  n : int;
  inputs : Value.t array;
  pattern : Failure_pattern.t;
      (** Base failure pattern; random crashes are drawn on top. *)
  weights : weights;
  max_crashes : int;
      (** Per trial, up to this many additional crash times are drawn
          uniformly (victim and time both random) among the processes
          the base pattern leaves correct. *)
  max_steps : int;  (** Per-trial step budget. *)
  properties : property list;  (** Checked in order after each trial. *)
  model : Fault_model.t;
      (** Fault model of the campaign.  [Crash] (the default) draws
          crash times exactly as before — the trial stream is
          bit-identical to pre-model campaigns.  [Byzantine t] treats
          the (at most [t]) randomly crashed processes as corrupted:
          an extra weighted arm steps the destination of one of their
          pending messages on it, forged at that delivery into a
          random {!Engine.Make.forge_pool} entry, and greybox mutation
          may stamp forged payloads onto spliced deliveries.
          [Mobile t] crashes nobody; instead a per-trial seed drives
          {!Fault_model.mobile_faulty} and every message sent while
          its sender was in the round's faulty set is permanently
          omitted.  All model-specific randomness is drawn only under
          its model, keeping the crash stream byte-stable. *)
  coverage : bool;
      (** Greybox mode: maintain a coverage map over interned state
          ids and (state-id, state-id) transition pairs, keep a corpus
          of schedules whose runs lit new coverage, and generate most
          trials by mutating corpus entries (splice, insert, drop,
          delivery-subset flips over {!Replay.step_desc} lists, each
          replayed leniently with a random tail) under an energy
          schedule favoring entries with rarely-hit ids.  Corpus
          evolution is epoch-frozen — a trial sees the corpus folded
          through the clean trials of earlier epochs only, in trial
          order — so trial [i] remains a pure function of
          [(config, seed, i)] and every blind-mode contract
          (bit-reproducibility, parity across domain counts,
          checkpoint/resume) carries over verbatim; the corpus rides
          the checkpoint payload. *)
}

val default_config : ?k:int -> n:int -> unit -> config
(** Distinct inputs, failure-free base pattern, {!default_weights},
    no extra crashes, 200-step budget, properties
    [[K_agreement k; Validity]] (default [k = 1]), blind
    (non-coverage) generation. *)

type violation = {
  trial : int;  (** Trial index of the first violating run. *)
  property : string;
  reason : string;
  pattern : Failure_pattern.t;  (** The trial's full failure pattern. *)
  run : Run.t;
  schedule : Replay.step_desc list;  (** Full offending schedule. *)
  shrunk : Replay.step_desc list;
      (** When [replays]: 1-minimal — it replays to its end and still
          violates [property], and removing any single step loses one
          or the other.  Otherwise [schedule], unshrunk. *)
  shrink_candidates : int;  (** Candidate schedules replayed by ddmin. *)
  replays : bool;
      (** [schedule] replays to its end ({!Make.replay_strict}) and
          violates [property] again, so [shrunk] is 1-minimal. *)
}

type outcome =
  | Violation_found of violation
  | Clean of { trials : int }  (** All trials ran; none violated. *)
  | Budget_exhausted of { trials : int }
      (** The checkpoint interrupt ended the campaign after [trials]
          trials with no violation found: the contiguous clean-trial
          watermark, the figure the final checkpoint flush records, at
          every domain count. *)

type coverage_summary = {
  cov_trials : int;  (** The clean-trial watermark it is folded to. *)
  cov_ids : int;  (** Distinct interned state ids covered. *)
  cov_pairs : int;  (** Distinct (state-id, state-id) transition pairs. *)
  cov_corpus : (Failure_pattern.t * Replay.step_desc list) list;
      (** Corpus entries in admission order: each admitted run's
          failure pattern and executed schedule. *)
}
(** Structural digest of a coverage campaign's state at its end
    ({!Make.campaign}): the coverage line of its summary, and what
    pins that a killed-and-resumed campaign carries the exact corpus
    an uninterrupted one holds. *)

module Make (A : Algorithm.S) : sig
  val trial :
    ?record:bool -> config -> seed:int -> int -> Failure_pattern.t * Run.t
  (** The [i]-th trial of campaign [seed], as a pure function of
      [(config, seed, i)] — the unit of parity across domain counts:
      every campaign executes exactly this run for trial [i].
      [record] (default [true]) is {!Engine.Make.run}'s: an
      unrecorded trial has the same status and decisions, but no
      event log, forges or trace rows. *)

  val adversary : config -> Ksa_prim.Rng.t -> Adversary.t
  (** The weighted adversary a fresh trial runs under, drawing from
      [rng] (in a trial, after the trial pattern's draws).  It reads
      its observation through the {!Adversary} accessors: with no
      crashed sender a decision allocates only its [Step] and the
      delivery list. *)

  val check_run : config -> Run.t -> (property * string) option
  (** First violated property of [config.properties], with reason. *)

  val replay_schedule :
    ?pattern:Failure_pattern.t ->
    config ->
    Replay.step_desc list ->
    Run.t
  (** Replay a schedule under [Replay.sequential] with the config's
      inputs and step budget ([pattern] defaults to [config.pattern]).
      Safety verdicts transfer from the fuzzed run even though drops
      are not part of the schedule: dropped messages were never
      delivered, so replay feeds every process the same receive
      sequence.  Kept only for the benchmark's hunt units
      ([ksa_bench/units.ml]); it goes with ROADMAP item 9. *)

  val replay_strict :
    ?pattern:Failure_pattern.t ->
    config ->
    Replay.step_desc list ->
    (Run.t, string) result
  (** {!replay_schedule} under {!Replay.strict}: [Ok run] only when the
      replay took every step of the schedule, else the named reason
      ("step i: ...") it stopped short, an action the engine refused
      included. *)

  val shrink :
    config ->
    pattern:Failure_pattern.t ->
    property ->
    Replay.step_desc list ->
    Replay.step_desc list * int * bool
  (** [shrink config ~pattern prop schedule] delta-debugs (ddmin) the
      schedule to a 1-minimal one that {!replay_strict} replays to its
      end and that still violates [prop]; also returns the number of
      candidate replays and whether the input schedule itself did
      (the [replays] of {!violation}).  If it did not, the schedule is
      returned unshrunk. *)

  val run :
    ?on_trial:(int -> Run.t -> unit) ->
    ?domains:int ->
    ?ckpt:Checkpoint.ctl ->
    ?resume_payload:string ->
    config ->
    seed:int ->
    trials:int ->
    outcome
  (** Campaign over trials [0 .. trials-1], reporting the first
      violation in trial order (then shrunk).  [on_trial] sees each
      trial's recorded run — e.g. to collect the decision corpus.

      A trial records its event log only when something reads it:
      coverage mode, an [on_trial] observer or a [Custom] property.
      Otherwise the built-in properties judge the unrecorded run, and
      the first violating trial is re-run once, recorded, after the
      join and checked again; the violation reports that run.  The
      re-run counts in neither [fuzz.trials] nor [fuzz.trial].

      [domains] (default [1]) workers claim trial indices from a
      shared ticket counter; worker 0 runs in the calling domain and
      the other [domains − 1] are spawned ({!Explorer.fan_out}).  A
      fault that escapes a worker (the interrupt poll, a checkpoint
      write) stops the others, and the campaign re-raises it once every
      spawned domain has been joined.  Workers stop claiming tickets
      above the lowest violating index found so far, but every ticket
      below it still runs, so for a fixed seed the outcome is
      bit-identical at every domain count.  Only an interrupt makes which trials ran
      depend on timing: with none, a campaign is a pure function of
      its seed.  [on_trial] is invoked from the domain that ran the
      trial: with [domains > 1] it runs concurrently on several
      domains and must be thread-safe.

      In coverage mode the corpus is shared under the watermark
      mutex: clean-trial updates are buffered and folded in strict
      trial order when the watermark crosses an epoch boundary, so
      every worker generates against exactly the corpus state of an
      uninterrupted one-domain run.

      [ckpt] attaches a {!Checkpoint} controller: after each clean
      trial the driver offers a snapshot whose payload is the clean
      watermark (every trial below it completed clean, advanced in
      ticket order) plus, in coverage mode, the canonical corpus
      state at that watermark.  Each executed trial polls the
      interrupt once, the one way to end a campaign early: it flushes
      a final checkpoint before returning [Budget_exhausted].  A
      wall-clock budget is an interrupt the caller folds into its
      poll (the library itself never reads a clock), so a
      [--max-seconds] expiry preserves exactly what a SIGINT would.
      [resume_payload] (the {!Checkpoint.payload} of a ["fuzz"]
      checkpoint, at any domain count) restarts the campaign at the
      recorded watermark with the recorded corpus; the resumed
      verdict — violation trial, shrunk schedule, corpus evolution,
      everything — is bit-identical to an uninterrupted run's.  A payload another engine wrote, or one
      written under another [--model], is reported by
      {!Checkpoint.warn_mismatch} and the campaign starts fresh.

      A trial that raises is supervised: the failure lands in the
      checkpoint ledger with [requeued = 1] ([campaign.worker.failures]
      / [campaign.requeues] metrics) and the trial is retried once in
      place.  A second failure poisons the campaign: it is ledgered
      with [requeued = 0], [fuzz.tickets_poisoned] records it, the
      checkpoint (ledger and clean watermark included) is flushed,
      and the exception re-raises after the join — the campaign dies
      loudly but resumably. *)

  val campaign :
    ?on_trial:(int -> Run.t -> unit) ->
    ?domains:int ->
    ?ckpt:Checkpoint.ctl ->
    ?resume_payload:string ->
    config ->
    seed:int ->
    trials:int ->
    outcome * coverage_summary option
  (** {!run}, and in coverage mode the coverage folded through the
      final clean watermark (what the [fuzz.cov.*] gauges last read). *)

  val run_par :
    ?on_trial:(int -> Run.t -> unit) ->
    ?domains:int ->
    ?ckpt:Checkpoint.ctl ->
    ?resume_payload:string ->
    config ->
    seed:int ->
    trials:int ->
    outcome
  (** {!run} with [domains] defaulting to {!Explorer.default_domains}.
      Kept only for the benchmark's fuzz units ([ksa_bench/units.ml]);
      it goes with ROADMAP item 9. *)
end
