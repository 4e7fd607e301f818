(** The interface a distributed algorithm presents to the engine.

    This is the paper's "deterministic state machine" with its
    transition relation and message sending function (Section II),
    fused into a single [step]: one atomic step receives a (possibly
    empty) set of messages, optionally queries the failure detector,
    updates the local state, sends messages, and may irrevocably
    decide.  Atomic receive+send and one-step broadcast are the
    {e favourable} choices of the Dolev–Dwork–Stockmeyer parameters,
    which only strengthens impossibility results run against this
    interface (Corollary 5).

    Implementations must be pure: the engine replays and splices runs
    under the assumption that [init] and [step] are functions of their
    arguments. *)

module type S = sig
  type state
  type message

  val name : string

  val uses_fd : bool
  (** Whether the algorithm queries a failure detector; the engine
      requires an oracle iff this is set. *)

  val init : n:int -> me:Pid.t -> input:Value.t -> state
  (** Initial state of process [me] in a system of [n] processes with
      proposal value [input].  Like the paper's restricted algorithm
      A|D (Definition 1), code always sees the {e full} system size
      [n], even when run in a restricted system. *)

  val step :
    state ->
    received:(Pid.t * message) list ->
    fd:Fd_view.t option ->
    state * (Pid.t * message) list * Value.t option
  (** One atomic step.  [received] are the messages delivered in this
      step (sender, payload) — in the paper a step receives a set —
      listed in canonical order: by sender, then by payload under
      [compare], the order every engine run folds a batch in,
      recorded or explored, whatever order the messages were sent
      in.  [fd] is the failure
      detector's answer for this step, present iff the model provides
      one.  Returns the new state, messages to send (recipient,
      payload) — a broadcast is simply [n] sends — and [Some v] to
      decide [v].  The output variable is write-once: the engine
      treats a second, different decision as an algorithm bug and
      raises. *)

  val canon : state -> state
  (** Behaviour-preserving normal form of a local state, the
      algorithm-level lever of the [--reduction sym] orbit keys: two
      states that [canon] maps to the same representative must be
      bisimilar — [step] from either (with [canon]-equal received
      lists) must produce [canon]-equal states, [canon_message]-equal
      sends in the same order, and equal decisions.  [canon] must be
      idempotent, and a function of the state's bindings: states with
      equal contents must canon to [=] values, or they intern apart.
      Typical use: sort an order-insensitive list (a deduplicated
      heard-set kept in arrival order), and rebuild a [Set]/[Map]
      field from its sorted bindings (its tree shape records the
      insertion order).  Algorithms whose states are already canonical
      return them unchanged. *)

  val canon_message : message -> message
  (** Same contract for payloads: a delivered [canon_message m] must
      drive [step] exactly like [m] would (after [canon] of the
      results).  The engine interns and stores the canonical payload,
      so representation-equal messages share one interned id. *)

  val forge_pool : n:int -> values:Value.t list -> message list
  (** The payloads a Byzantine-corrupted sender may inject in place of
      a pending message, parameterized by the candidate value domain
      (the proposed inputs plus one out-of-domain value; see
      {!Fault_model.forge_values}).  The pool must be a finite,
      deterministic function of its arguments — forge indices are
      recorded in schedules and replayed — and is consulted only under
      [Fault_model.Byzantine]; return [[]] to make the algorithm's
      messages unforgeable (the Byzantine explorer then degenerates to
      the crash explorer). *)

  val pp_state : Format.formatter -> state -> unit
  val pp_message : Format.formatter -> message -> unit
end
