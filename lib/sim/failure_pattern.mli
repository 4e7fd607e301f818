(** Failure patterns F(·) (Section II-C).

    A failure pattern maps each time (step index) to the set of
    crashed processes: [p ∈ F(t)] iff no step of [p] occurs at or
    after [t].  We represent it by the crash time of each process —
    the smallest [t] with [p ∈ F(t)] — or its absence for correct
    processes.  Patterns are fixed before a run starts; the engine
    enforces that a crashed process takes no step at or after its
    crash time. *)

type t

val none : n:int -> t
(** The failure-free pattern on [n] processes. *)

val of_crash_times : n:int -> (Pid.t * int) list -> t
(** [of_crash_times ~n assoc]: process [p] crashes at time [t] for
    each [(p, t)] in [assoc]; others are correct.  Crash times must be
    ≥ 0.  @raise Invalid_argument on duplicates, invalid pids or
    negative times. *)

val initial_dead : n:int -> dead:Pid.t list -> t
(** All processes in [dead] crash at time 0 (they never take a
    step): the Section VI "initially dead" failure model. *)

val n : t -> int

val crash_time : t -> Pid.t -> int option

val is_faulty : t -> Pid.t -> bool
(** Membership in F = ⋃{_t} F(t). *)

val faulty : t -> Pid.t list
(** F, sorted. *)

val correct : t -> Pid.t list
(** Π \ F, sorted. *)

val is_crashed : t -> Pid.t -> time:int -> bool

val restrict_to : t -> Pid.t list -> t
(** Pattern for the same universe in which every process {e outside}
    the given set is initially dead and processes inside keep their
    original crash times.  This is the pattern used when running a
    restricted algorithm A|D as if only D existed (proof of
    Theorem 2, condition (D)). *)

val merge : inside:Pid.t list -> t -> t -> t
(** [merge ~inside fa fb] is the pattern that agrees with [fa] on
    processes in [inside] and with [fb] elsewhere — the failure
    pattern surgery of Lemma 11, item 2:
    F{_β'}(t) = (F{_β}(t) ∩ (Π∖D)) ∪ (F{_α}(t) ∩ D).
    Both patterns must have the same size. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
