(** Heard-of assignments and communication predicates.

    An assignment fixes HO(p, r) for every process p and round r ≥ 1.
    Predicates over assignments are the HO model's replacement for
    failure and synchrony assumptions. *)

module Pid = Ksa_sim.Pid

type t = { n : int; ho : round:int -> me:Pid.t -> Pid.t list }

val make : n:int -> (round:int -> me:Pid.t -> Pid.t list) -> t
(** Normalizes: output sets are sorted, deduplicated, restricted to
    valid pids. *)

val complete : n:int -> t
(** HO(p, r) = Π: a lossless synchronous system. *)

val partitioned : n:int -> groups:Pid.t list list -> ?until:int -> unit -> t
(** HO(p, r) = the group of p while [r <= until] (default: forever),
    then Π: the round-model form of the partition adversary.
    Ungrouped processes form an implicit extra group.
    @raise Invalid_argument on overlapping groups. *)

val crash_like : n:int -> silent_from:(Pid.t * int) list -> t
(** Everyone hears everyone except that process p disappears from all
    HO sets from round r on, for each [(p, r)]: the HO rendering of
    crash failures. *)

val mobile : n:int -> t:int -> seed:int -> t
(** The HO rendering of the mobile-failure model ({!Ksa_sim.Fault_model.Mobile}):
    each round draws a fresh faulty set of at most [t] processes via
    {!Ksa_sim.Fault_model.mobile_faulty} — the identical per-round
    sampler the asynchronous fuzzer uses, so the two substrates agree
    on which senders round r silences — and HO(p, r) is everyone
    except that round's faulty set.  Unlike {!crash_like}, a silenced
    process reappears in later HO sets: transience, not crash.
    @raise Invalid_argument unless [0 <= t <= n]. *)

val random :
  rng:Ksa_prim.Rng.t -> n:int -> min_size:int -> ?self_in:bool -> unit -> t
(** Per (round, process) a fresh uniform HO set of at least
    [min_size] members ([self_in] forces p ∈ HO(p, r); default
    true).  Deterministic per (round, me) via caching. *)

(** {1 Predicates} (checked over rounds [1 .. horizon]) *)

val self_in : t -> horizon:int -> bool
(** p ∈ HO(p, r) everywhere. *)

val nonempty : t -> horizon:int -> bool

val no_split : t -> horizon:int -> bool
(** Any two HO sets of the same round intersect — the quorum-like
    predicate under which UniformVoting is safe. *)

val majority : t -> horizon:int -> bool
(** |HO(p, r)| > n/2 everywhere (implies {!no_split}). *)

val uniform_round : t -> round:int -> bool
(** All processes have the same HO set in that round. *)

val confined_to : t -> groups:Pid.t list list -> horizon:int -> bool
(** HO(p, r) ⊆ group(p) for r ≤ horizon: the (dec-D)/(dec-D̄)
    situation, expressed as a communication predicate. *)

val kernel : t -> round:int -> Pid.t list
(** ∩{_p} HO(p, r): the processes heard by everyone in that round. *)
