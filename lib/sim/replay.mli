(** Replaying and splicing recorded runs.

    The proofs of Lemmas 11 and 12 build new runs by surgery: take the
    steps of the processes in D̄ from one run and the steps of the
    processes in D from another, delay all cross-partition messages,
    and argue the result is admissible.  To execute that surgery we
    re-run the algorithm under a {e replay adversary} that reproduces
    each process's recorded step sequence.

    Message identity across runs: recorded deliveries are stored as
    (sender, send rank) rather than message ids — [seq] is the rank of
    the message among those its sender sent on the channel (src → dst),
    whatever order the run delivered the channel in (the fuzz
    adversaries reorder channels freely).  The descriptor transfers
    between runs as long as the sender goes through the same states —
    which is exactly the induction the lemmas perform. *)

type delivery = { src : Pid.t; seq : int; forged : int option }
(** The [seq]-th message (1-based, in send order) that [src] sent to
    the stepping process.  [forged] is [Some alt] when the recorded run
    delivered the message with its payload replaced by entry [alt] of
    the algorithm's forge pool (Byzantine model): the replay
    adversaries deliver it forged the same way, in the one
    [Adversary.Forging_step] of the step, so a replayed step costs one
    step of the budget as the recorded one did.  [None] under the
    crash model. *)

type step_desc = { pid : Pid.t; deliver : delivery list }

val project : keep:(Pid.t -> bool) -> Run.t -> step_desc list
(** The step descriptors of the kept processes, in run order, each
    delivery numbered by its send rank.  [strict] of the whole
    projection, run from the same inputs under the same failure
    pattern, reproduces the run's {!Trace.t}. *)

val sequential : step_desc list list -> Adversary.t
(** Replays the streams one after the other (stream 2 starts when
    stream 1 is exhausted): the Lemma 12 pasting order.  Halts when
    every stream is exhausted, or at the first descriptor it cannot
    take: its process cannot step, or one of its deliveries names no
    pending message. *)

val strict : step_desc list -> Adversary.t * (Run.t -> (Run.t, string) result)
(** [sequential [s]], and the check of the run it drove: [Ok run] when
    the run took every step of [s], else [Error "step i: ..."] naming
    the first step (1-based) it did not take and why — a process that
    cannot step, a delivery that names no pending message ("p2 has no
    pending message from p1 #3"), or a step budget that ran out. *)

val lenient : ?rest:Adversary.t -> step_desc list -> Adversary.t
(** Best-effort replay of a possibly ill-formed descriptor stream —
    the workhorse of greybox schedule mutation ({!Fuzz}), where
    spliced or perturbed schedules routinely reference messages the
    current run never sends.  Unlike {!sequential}, which halts at the
    first descriptor it cannot take, [lenient] degrades per step: a
    descriptor for a crashed process is skipped, and each delivery is
    resolved independently with unresolvable ones silently omitted
    (stepping a process with a subset of its recorded receives is
    always engine-valid).  When the stream is exhausted, control
    passes to [rest] (default: halt) — replay-prefix-plus-random-tail
    is how a mutant both revisits its parent's territory and deepens
    past it. *)
