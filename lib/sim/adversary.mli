(** Adversaries: the scheduler side of the model.

    In the paper, asynchrony is quantified adversarially — an
    impossibility proof exhibits a scheduler that delays messages and
    orders steps so as to produce a bad run.  Here an adversary is a
    (possibly stateful) function from an observation of the current
    configuration to the next scheduling action.  The engine validates
    every action against the failure pattern and the buffer contents,
    so adversaries cannot cheat (schedule crashed processes, deliver
    non-existent messages, or drop messages whose sender is still
    alive).

    The strategies below are exactly the constructions the paper's
    proofs use: fair schedules for possibility results, partition /
    solo-order schedules for Theorem 2, Theorem 8's border case and
    Lemma 12. *)

type pending = { id : int; src : Pid.t; dst : Pid.t; sent_at : int }
(** Metadata of an undelivered message (payload hidden), as
    {!pending} lists it. *)

type obs
(** An observation: a read-only view of one configuration.

    {!Engine} builds it in O(1) by wrapping the configuration's own
    copy-on-write rows (the per-destination inboxes and the decided
    row) with the time, the system size and the failure pattern; no
    pending message is copied.  The type is abstract, so an adversary
    can only {e read} through the accessors below and can never write
    into rows it shares with the engine; the payload type is hidden,
    so no accessor can reach a payload.  A view stays valid after
    [next] returns: a configuration is never mutated once published
    (every step copies a row before writing it), so a kept view keeps
    describing the configuration it was taken of.

    Every accessor that returns message ids returns them ascending,
    which is sending order. *)

type action =
  | Step of { pid : Pid.t; deliver : int list }
      (** Process [pid] takes a step, receiving exactly the pending
          messages with the given ids (each must be addressed to
          [pid]). *)
  | Forging_step of { pid : Pid.t; deliver : int list; forged : (int * int) list }
      (** The same step, with the Byzantine adversary's one act: [pid]
          receives each message [id] of [forged]'s [(id, alt)] with
          its payload replaced by entry [alt] of
          {!Algorithm.S.forge_pool}.  A forgery exists only at its
          delivery, so it is per receiver: equivocation needs no extra
          machinery.  The engine does not gate it on the failure
          pattern; budget discipline (only corrupted senders, at most
          [t] of them) is the generating adversary's obligation,
          pinned by test/test_byzantine.ml. *)
  | Drop of int list
      (** Remove pending messages whose senders have already crashed:
          the "omit sending to a subset of receivers in the very last
          step" allowance of the model, realized as a retroactive
          drop. *)
  | Halt  (** End the run (the adversary stops scheduling). *)

type t = { describe : string; next : obs -> action }
(** A (stateful) adversary.  [next] is called repeatedly until it
    returns [Halt], the engine's step budget runs out, or no process
    can be scheduled. *)

val view :
  time:int ->
  n:int ->
  inbox:('m Envelope.t * int) list array ->
  decided:(Value.t * int) option array ->
  pattern:Failure_pattern.t ->
  obs
(** The engine's constructor: one small block that shares [inbox]
    (one list per destination, newest first, each envelope paired with
    an int the view ignores) and [decided] (value and decision time
    per pid).  The caller must never mutate either array afterwards. *)

val obs_of_pending :
  time:int ->
  n:int ->
  pattern:Failure_pattern.t ->
  decided:(Pid.t * Value.t) list ->
  pending list ->
  obs
(** A view of a synthetic configuration, for tests: the given pending
    messages (any order) and decisions.
    @raise Invalid_argument on a repeated id or a destination out of
    range. *)

(** {1 Reading a view} *)

val time : obs -> int
(** Time of the last executed step (0 initially). *)

val n : obs -> int

val pattern : obs -> Failure_pattern.t

val decision : obs -> Pid.t -> Value.t option

val has_decided : obs -> Pid.t -> bool

val is_alive : obs -> Pid.t -> bool
(** [p] is a pid of the system allowed to take the next step (not yet
    crashed at time [time obs + 1]). *)

val alive : obs -> Pid.t list
(** The processes {!is_alive} holds of, ascending. *)

val count_alive : ?undecided:bool -> obs -> int
(** [List.length (alive obs)], counting only the undecided ones when
    [undecided] (default false); allocates nothing. *)

val nth_alive : ?undecided:bool -> obs -> int -> Pid.t
(** [nth_alive obs r] is [List.nth (alive obs) r] (of its undecided
    ones when [undecided]), without the list:
    [nth_alive obs (Rng.int rng (count_alive obs))] draws exactly what
    [Rng.pick rng (alive obs)] draws.
    @raise Invalid_argument if [r] is out of range. *)

val all_correct_decided : obs -> bool

val pending_for : ?allow:(Pid.t -> Pid.t -> bool) -> obs -> Pid.t -> int list
(** Ids of pending messages addressed to a process, optionally
    filtered by an [allow src dst] predicate; one walk of its inbox. *)

val pending_for_sent : keep:(Pid.t -> int -> bool) -> obs -> Pid.t -> int list
(** Like {!pending_for}, filtered by [keep src sent_at]. *)

val pending_for_sampled : obs -> Pid.t -> (unit -> bool) -> int list
(** [pending_for_sampled obs p keep] is
    [List.filter (fun _ -> keep ()) (pending_for obs p)]: [keep] is
    called once per message, oldest first (a random subset draws what
    the filter drew), but only the kept ids are allocated. *)

val is_pending_for : obs -> Pid.t -> int -> bool
(** Message [id] is pending and addressed to [p]; allocates nothing. *)

val droppable : obs -> int list
(** Ids of pending messages the engine would accept in a {!Drop}:
    those whose sender is already crashed at [time obs]. *)

val has_droppable : obs -> bool
(** [droppable obs <> []], without building the list. *)

val forgeable : obs -> (int * Pid.t) list
(** [(id, dst)] of the pending messages a {!Forging_step} may forge,
    ascending by id.  Corruption rides the failure pattern (a corrupted
    process subsumes a crashed one), so these are the {!droppable}
    messages addressed to a process {!is_alive} holds of. *)

val fold_pending :
  ('a -> id:int -> src:Pid.t -> dst:Pid.t -> sent_at:int -> 'a) ->
  obs -> 'a -> 'a
(** Folds over every pending message, inbox by inbox in pid order and
    each inbox oldest first: on any one channel (sender, destination)
    the messages come in sending order. *)

val pending : obs -> pending list
(** Every pending message in sending order.  Materialises the list:
    for tests and cold callers. *)

(** {1 Fair strategies (possibility side)} *)

val fair : rng:Ksa_prim.Rng.t -> t
(** Uniformly random alive process each step; delivers {e all} its
    pending messages.  Keeps stepping decided processes (they may
    help others), halts once every correct process has decided and no
    message remains for an alive process. *)

val round_robin : unit -> t
(** Cycles through alive processes in id order, delivering all
    pending messages — the canonical "synchronous processes" schedule
    of Section V (lock-step speeds, asynchronous communication). *)

val fair_lossy : rng:Ksa_prim.Rng.t -> p_defer:float -> t
(** Like [fair] but each pending message is independently withheld
    with probability [p_defer] at each delivery opportunity
    (still delivered eventually with probability 1): exercises
    out-of-order, delayed communication. *)

(** {1 Partitioning strategies (impossibility side)} *)

val partition : groups:Pid.t list list -> ?release:(obs -> bool) -> unit -> t
(** Round-robin over alive processes, but a message crossing between
    two (disjoint) groups is withheld while [release obs] is false
    (default: while some alive group member is undecided — i.e.
    "until every correct process has decided", the run shape used
    throughout Sections V and VII).  Processes not in any group are
    treated as one implicit extra group.  After release, behaves like
    [round_robin]. *)

val sequential_solo : groups:Pid.t list list -> t
(** Lemma 12's construction: run group 1 in isolation (its members
    receive only from group 1) until all its alive members decide,
    then group 2, etc.  After the last group, all withheld cross-group
    messages are released and scheduling becomes round-robin.
    With singleton groups this realizes the Section V observation
    that wait-freedom lets every process decide solo. *)

val eventually_lockstep : rng:Ksa_prim.Rng.t -> gst:int -> p_defer:float -> t
(** Partial synchrony with a global stabilization time: before step
    [gst] behaves like {!fair_lossy} (arbitrary speeds and delays);
    from [gst] on, round-robin with full delivery — i.e. the run's
    suffix is admissible for synchronous processes (Φ = n) and
    Δ-bounded communication.  The schedule never halts on its own
    before all correct processes decide, so it also drives
    non-terminating protocols (e.g. heartbeat-based failure-detector
    implementations) under a step budget. *)
