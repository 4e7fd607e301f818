(** Completed (finite prefix of a) run, with the analyses the paper's
    run-level predicates need.

    A run in the paper is an infinite configuration sequence; we work
    with finite prefixes that are {e decision-complete} (every correct
    process has decided) whenever the adversary and algorithm permit.
    All properties of interest (validity, k-agreement, the (dec-D) and
    (dec-D̄) predicates, indistinguishability until decision) are
    prefix-checkable. *)

type status =
  | All_correct_decided  (** Decision-complete prefix. *)
  | Halted_by_adversary
  | Hit_step_budget
      (** The step budget ran out first — for a terminating algorithm
          under a fair adversary this indicates non-termination. *)
  | No_enabled_process  (** Every process crashed. *)

type t = {
  status : status;
  n : int;
  inputs : Value.t array;
  pattern : Failure_pattern.t;
  events : Event.t list;  (** Chronological. *)
  trace : Trace.t;
      (** The per-process interned state-id sequences of the run —
          the substrate-neutral object Definitions 2 and 3 evaluate
          over (see {!Ksa_core.Indist}).  Step rows are empty for
          runs of a configuration that does not record (the
          explorer's), which keeps no log. *)
  decisions : (Pid.t * Value.t * int) list;
      (** (process, value, decision time), sorted by pid; includes
          decisions of processes that later crashed — k-agreement is
          uniform. *)
  forges : (int * int) list;
      (** (message id, forge-pool index) of every message the run
          delivered forged, in chronological order; [[]] for
          crash-model runs.  A message is delivered once, so it
          appears at most once.  {!Replay.project} consults it so a
          projected schedule re-emits the forgeries the run saw. *)
}

val decision_of : t -> Pid.t -> Value.t option

val decided_values : t -> Value.t list
(** Distinct decided values, sorted. *)

val distinct_decisions : t -> int

val all_correct_decided : t -> bool

val last_decision_time : t -> Pid.t list -> int option
(** Latest decision time among the given processes ([None] if one of
    them never decided). *)

val receives_nothing_from_until :
  t -> Pid.t -> from:Pid.t list -> until:int -> bool
(** [receives_nothing_from_until run p ~from ~until] holds iff [p]
    receives no message sent by a process in [from] in any step with
    time ≤ [until] — the quantitative core of (dec-D̄). *)

val steps_of : t -> Pid.t -> Event.t list
(** The events of one process, chronological. *)

val step_count : t -> int

val message_count : t -> int
(** Total messages sent. *)

val pp_summary : Format.formatter -> t -> unit
