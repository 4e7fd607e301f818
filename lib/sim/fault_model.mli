(** The shared fault-model abstraction consumed by all three engines
    (async sim, Heard-Of rounds, explorer).

    - [Crash]: the baseline model — processes stop permanently, their
      in-flight messages may be dropped.  The budget is the engine's
      crash budget ([--crash-budget]).
    - [Byzantine t]: up to [t] corrupted processes.  A corrupted
      process subsumes every crash behaviour (it may stop, its
      messages may be dropped) and additionally its messages may be
      {e forged}: a step receives a message with its payload replaced
      by an entry of the algorithm's forge pool.  A forgery exists
      only at its delivery, hence per receiver — two receivers may see
      different payloads from the same corrupted sender in the same
      round (equivocation).
    - [Mobile t]: transient faults with no permanent faulty set.  In
      each round up to [t] processes are faulty; their messages for
      that round may be omitted, but they themselves keep running and
      a process faulty in round [r] is healthy in round [r+1] unless
      resampled.  Nobody ever crashes.

    At budget 0 all three models coincide: no process is ever faulty,
    no message is ever dropped or forged, and the explorers produce
    bit-identical graphs (pinned by test/test_byzantine.ml). *)

type t = Crash | Byzantine of int | Mobile of int

val crash : t

val byzantine : int -> t
(** @raise Invalid_argument on a negative budget *)

val mobile : int -> t
(** @raise Invalid_argument on a negative budget *)

val budget : t -> int
(** The model's own budget; 0 for [Crash] (whose budget is the
    engine's crash budget). *)

val budget_or : crash_budget:int -> t -> int
(** Effective campaign budget: [crash_budget] under [Crash], the
    model's own budget otherwise. *)

val tag : t -> string
(** The model kind without its budget: ["crash" | "byzantine" |
    "mobile"]. *)

val to_string : t -> string
(** Round-trips with {!of_string}: ["crash"], ["byzantine:2"],
    ["mobile:1"]. *)

val of_string : string -> (t, string) result
(** Accepts ["crash"], ["byzantine:<t>"], ["mobile:<t>"], and the
    bare kinds ["byzantine"] / ["mobile"] (budget 1). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val mobile_faulty : seed:int -> n:int -> t:int -> round:int -> Pid.t list
(** The faulty set of round [round] under a mobile adversary: a pure
    function of its arguments, sorted, at most [t] pids.  Shared by
    the fuzz adversary and {!Ksa_ho.Assignment.mobile} so the async
    and round-based engines resample identical sets. *)

val forge_values : Value.t array -> Value.t list
(** Candidate values for forged payloads, derived from the proposal
    inputs: the distinct proposed values plus one fresh value outside
    the proposal set.  Deterministic, so forge-pool indices agree
    across engines and across save/replay. *)
