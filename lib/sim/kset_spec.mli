(** The k-set agreement task (Section II-A): its three properties as
    the one set of predicates every checker calls — the explorer's
    [check] closure, the fuzzer's properties, the daemon's jobs and
    the experiments.  Each returns [Some reason] on a violation.

    A decision list is [(process, value, time)], as in {!Run.t}'s
    [decisions] and the explorer's [check] argument. *)

val k_agreement : k:int -> (Pid.t * Value.t * int) list -> string option
(** {b k-Agreement}: at most [k] distinct decision values over {e all}
    processes, correct or faulty (the uniform flavour; k = 1 is
    uniform consensus).  Reason: ["N distinct decisions exceed k=K"].
    A call that holds allocates nothing. *)

val validity : inputs:Value.t array -> (Pid.t * Value.t * int) list -> string option
(** {b Validity}: every decided value was proposed by some process.
    Reason: ["decided value V was never proposed"] for the first such
    decision.  A call that holds allocates nothing. *)

val termination : Run.t -> string option
(** {b Termination}, on a finite prefix: every correct process has
    decided.  Reason: ["correct process undecided after N steps"],
    with N the run's {!Run.step_count}. *)

val check : k:int -> Run.t -> string option
(** Validity, k-agreement, then termination; the first failure. *)
