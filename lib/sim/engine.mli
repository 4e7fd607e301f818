(** The run executor: drives an algorithm under an adversary and a
    failure pattern, producing a {!Run.t}.

    The engine owns the paper's system-level objects — configurations
    (local states + message buffers), the step relation, time as step
    index — and enforces the model's rules:

    - a step atomically receives a chosen subset of the process's
      buffer, queries the failure detector (if the model has one),
      transitions, and sends messages;
    - a process takes no step with index greater than its crash time;
    - messages can only be dropped if their sender has crashed
      (the last-step-omission allowance);
    - output values are write-once.

    Configurations are immutable, so run prefixes can be forked —
    which is how the exhaustive {!Explorer} and the Lemma 11/12 run
    surgery work. *)

(** How the explorers choose the batch a step delivers from the
    stepping process's buffer ({!Explorer.delivery_policy} re-exports
    it with the meaning of each case). *)
type delivery_policy = Empty_or_all | Per_sender | All_subsets

module Make (A : Algorithm.S) : sig
  type config

  exception Invalid_action of string
  (** The adversary proposed an action the model forbids. *)

  exception Double_decision of Pid.t
  (** The algorithm tried to overwrite a decided output with a
      different value — an algorithm bug, not a model condition. *)

  val init :
    ?reduction:Canon.reduction -> ?record:bool -> n:int ->
    inputs:Value.t array -> unit -> config
  (** Initial configuration C{_0}: every process in its initial state,
      all buffers empty.  Every configuration steps the same way: a
      batch delivered in one step is folded into [A.step] in canonical
      (sender, payload) order, never in message-id order.  Ids encode
      one send interleaving, so under an id-order fold two
      configurations equal under {!key} could step to configurations
      that are not; with the canonical fold successor keys are a
      function of the configuration key alone, which makes
      {!Explorer}'s deduplication sound, and a recorded run of an
      explorer path reaches the explorer's keys.

      [record] (default [true]) keeps the event and forge logs that
      {!events} and {!finish} read; the {!Explorer} forks its
      configurations by the million with [~record:false], a blind
      {!Fuzz} trial runs so, and {!events} then returns [[]].  Nothing
      else depends on it.

      When [reduction] is a symmetry mode, the configuration applies
      [A.canon] to every produced local state and [A.canon_message] to
      every sent payload before interning (and stores the canonical
      payload), so representation-equal states and messages share one
      interned id; pass the same [reduction] to {!key}.
      @raise Invalid_argument if the input vector length differs from
      [n]. *)

  val init_explore :
    ?reduction:Canon.reduction -> n:int -> inputs:Value.t array -> unit ->
    config
  (** [init ?reduction ~record:false ~n ~inputs ()].  Kept only for
      the benchmark's layer replay ([ksa_bench/layers.ml]); it goes
      with ROADMAP item 9. *)

  val time : config -> int
  val n : config -> int
  val state_of : config -> Pid.t -> A.state
  val decision_of : config -> Pid.t -> Value.t option
  val decisions : config -> (Pid.t * Value.t * int) list
  (** [(p, v, t)] for each process [p] that decided [v] at time [t],
      ascending by pid.  The list is shared: the domain keeps the last
      one it built, keyed by the physical identity of [c]'s decided
      row, which is never written once published.  So a repeat call on
      the same row (a crash successor's, or that of any step deciding
      nothing) is O(1) and allocates nothing. *)

  val pending : config -> A.message Envelope.t list
  (** The undelivered messages in sending order (ascending id),
      gathered from the per-destination inboxes, which are the
      configuration's only pending index, and sorted. *)

  val events : config -> Event.t list
  (** Chronological event log of the prefix executed so far
      (empty unless the configuration records). *)

  val inbox : config -> Pid.t -> (int * Pid.t) list
  (** [(id, src)] of the pending messages addressed to a process, in
      sending order — read from that process's own list,
      O(|buffer(p)|) rather than O(|pending|). *)

  val iter_batches :
    delivery_policy -> config -> Pid.t -> (int list -> unit) -> unit
  (** [iter_batches policy c p f] calls [f] on each batch [policy]
      offers [p] in [c], as message ids newest first, written straight
      off [p]'s buffer.  [Empty_or_all]: [[]], then the whole buffer
      when it is not empty.  [Per_sender]: [[]], one batch per sender
      in order of the senders' first message, then the whole buffer
      when it names two senders or more.  [All_subsets]: every subset,
      counting down from the whole buffer to [[]], the oldest message
      on the lowest bit.  Allocates only the batches.
      @raise Invalid_argument for [All_subsets] on a buffer too large
      to count its subsets in an int. *)

  val pending_by_src : config -> int list array -> unit
  (** [pending_by_src c a] sets [a.(s)], for every pid [s] of [c], to
      the ids of the pending messages [s] sent: one walk of the
      inboxes, allocating only the lists.
      @raise Invalid_argument if [a] is shorter than [n c]. *)

  val observe : pattern:Failure_pattern.t -> config -> Adversary.obs
  (** The adversary's view of [c], in O(1): one small block sharing
      [c]'s inboxes and decided row (see {!Adversary.obs}). *)

  val forge_pool : n:int -> inputs:Value.t array -> A.message list
  (** The Byzantine forge pool of this system:
      [A.forge_pool ~n ~values:(Fault_model.forge_values inputs)].  A
      pure function of its arguments, so the explorer, the fuzz
      adversary and replay agree on the indices recorded in
      schedules. *)

  val apply :
    ?fd:Fd_view.oracle -> pattern:Failure_pattern.t -> config ->
    Adversary.action -> config option
  (** Execute one adversary action.  [None] on [Halt].  [Step] and
      [Forging_step] are the one {!step}.  Forgeries are {e not} gated
      on the failure pattern (replays run under a different pattern
      than the generating trial); budget discipline is the generating
      adversary's obligation.
      @raise Invalid_action if the action violates the model,
      @raise Double_decision on a write-once violation. *)

  (** {2 Key-first steps}

      A delivery step in three parts, so that the explorers can key a
      successor before they build it: {!step} validates the step and
      runs the transition through the calling domain's memo,
      {!write_step_key} writes the successor's {!key} from the parent
      and the outcome, and {!commit} builds the successor only when it
      is kept.  [apply ~pattern c (Step {pid; deliver})] is [commit c
      pid deliver (step ~pattern c pid deliver)].  Every entry takes
      the batch in any order and with repeats, and is cheapest on
      distinct ids newest first, as {!iter_batches} writes them.

      The memo is keyed by the int sequence [[reduce; state id;
      contents]]: [reduce] is the reduction flag (1 or 0), [contents]
      the delivered messages' (sender, payload id) pairs sorted as
      ints, since the canonical fold order is a function of their
      multiset.  {!idle_step} probes [[reduce; state id]]. *)

  type outcome
  (** The result of one validated step: the stepping process's new
      local state and its id, its sends and its decision.  A memo hit
      returns the stored entry itself. *)

  val step :
    ?fd:Fd_view.oracle -> ?forged:(int * int) list ->
    pattern:Failure_pattern.t -> config -> Pid.t -> int list -> outcome
  (** Validation and transition of [apply]'s [Step], or of its
      [Forging_step] with [forged] (default [[]]): a forged payload,
      canonical under a reduction and interned, is read in place of
      the sent one, in the fold and the memo key alike; a forgery of a
      message outside the batch, twice, or outside {!forge_pool} is
      refused.  The in-flight message is unchanged.  Counts one
      [sim.steps] and one memo hit or miss.  A memo hit allocates
      nothing when the batch is distinct and descending; the canonical
      fold sort and the deliverability check that builds the
      delivered entries run on a miss only.  A failure-detector
      algorithm's step is not memoised.
      @raise Invalid_action exactly as [apply] would, with the same
      text. *)

  val write_step_key :
    crashed:int -> reduction:Canon.reduction -> config -> Pid.t ->
    int list -> outcome -> int
  (** [write_step_key ~crashed ~reduction c pid deliver o], with [o]
      the {!step} of the same [c pid deliver], writes into
      {!Canon.key_buffer} what {!write_key} would write for [commit c
      pid deliver o], and returns its length.  Allocates nothing on
      a batch of distinct ids newest first.
      @raise Invalid_action on a send to an invalid pid,
      @raise Double_decision on a changed decision, as [apply]. *)

  val commit : config -> Pid.t -> int list -> outcome -> config
  (** The successor of a {!step}: the same configuration [apply]
      builds, with no second memo probe and no second [sim.steps].
      @raise Invalid_action and Double_decision as {!write_step_key}. *)

  val idle_step : pattern:Failure_pattern.t -> config -> Pid.t -> bool
  (** [true] only when the calling domain's transition memo already
      holds the entry for an empty delivery to [pid] in this
      configuration's local state, and that entry proves the step idle:
      same interned state, no sends, no new or conflicting decision.
      [apply ~pattern c (Step {pid; deliver = []})] then returns a
      configuration whose {!key} equals [c]'s under every [crashed]
      mask and every reduction — keys exclude time.
      Costs one memo probe, of the key [[reduce; state id]] written
      into the domain's scratch, and never steps, interns, allocates
      or counts a step.
      [false] on a memo miss, for an invalid or crashed [pid], for
      failure-detector algorithms, and whenever the step would raise;
      the caller then takes the real step. *)

  val omit : config -> int list -> config
  (** Remove pending messages without the crashed-sender gate of
      [Drop]: the mobile model's transient omission, where a healthy
      sender's messages for one round are lost.  Used by the
      {!Explorer} under [Fault_model.Mobile]; deliberately not an
      {!Adversary.action}, so crash-model adversaries cannot reach it.
      @raise Invalid_action on an empty list or a non-pending id. *)

  val run :
    ?max_steps:int -> ?fd:Fd_view.oracle -> ?record:bool ->
    n:int -> inputs:Value.t array -> pattern:Failure_pattern.t ->
    Adversary.t -> Run.t
  (** Drive the adversary from C{_0} until it halts or [max_steps]
      steps (default 100_000) have executed.  [record] is {!init}'s
      (default [true]).  An unrecorded run has the recorded run's
      [status], [inputs] and [decisions], but empty [events] and
      [forges] and empty trace rows, so {!Run.step_count} reads 0. *)

  val run_full :
    ?max_steps:int -> ?fd:Fd_view.oracle -> ?record:bool ->
    n:int -> inputs:Value.t array -> pattern:Failure_pattern.t ->
    Adversary.t -> Run.t * config
  (** Like {!run} but also returns the final configuration, so that
      callers can inspect final local states (e.g. extract the
      operation logs of a register emulation). *)

  val finish : config -> pattern:Failure_pattern.t -> Run.status -> Run.t
  (** Package an explicitly driven prefix as a {!Run.t} (used by the
      explorer and by run-surgery code that calls {!apply} itself);
      inputs are recovered from the initial configuration. *)

  type key = string
  (** Compact canonical key of a configuration: local states and
      message payloads are interned to dense integers in the global
      {!Ksa_prim.Intern} registries (shared across functor instances,
      substrates and domains — the registries are mutex-protected),
      and the key is the exact packed sequence of those integers.
      Equality of keys therefore holds {e iff} the semantic cores are
      structurally equal: no hash collision can conflate two distinct
      configurations, unlike a truncated digest. *)

  val key : ?crashed:int -> ?reduction:Canon.reduction -> config -> key
  (** The single reduction-parameterized key builder.  Always covers
      the semantic core of a configuration: local states, decided
      outputs and the multiset of undelivered (src, dst, payload)
      triples — deliberately excluding time and message ids, so that
      schedule-permuted but behaviourally identical configurations
      collide.  [crashed] is the crash explorer's crashed-set bitmask
      (default [0]).

      With [~reduction:No_reduction] (the default) the key is exact —
      byte-identical to the pre-reduction layout.  With a symmetry
      mode it is the serialized {!Canon.canonical} orbit
      representative: crashed processes' inert local states and
      undeliverable inbound messages are elided, and fully-unobservable
      ("movable") crashed processes are identified up to relabelling.
      Only meaningful on configurations built with the same
      [reduction] via {!init}.  Sound for state-space
      deduplication only when future behaviour is time-independent: no
      failure detector and no crash times later than 0.  The
      {!Explorer} checks these conditions. *)

  val write_key : crashed:int -> reduction:Canon.reduction -> config -> int
  (** {!key}, left in {!Canon.key_buffer} instead of copied out: its
      length.  Allocates nothing; the explorers probe their tables from
      the buffer and copy a key out only to keep it. *)
end
