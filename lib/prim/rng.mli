(** Deterministic pseudo-random number generation (splitmix64).

    Every source of randomness in this repository flows through this
    module so that runs, schedules, failure-detector histories and
    generated graphs are exactly reproducible from an integer seed.
    Reproducibility is load-bearing: the run-pasting surgery of
    Lemmas 11 and 12 re-executes previously observed runs, which is
    only sound when runs are a pure function of their seed and
    parameters. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t

val copy : t -> t
(** Independent clone with identical future output. *)

val split : t -> t
(** Derive an independent generator; advances the parent. *)

val split_at : t -> int -> t
(** [split_at t i] is the [i]-th child of [t]'s current state, without
    advancing [t]: the generator [split] would return on its [i+1]-th
    consecutive call.  Children at distinct indices are mutually
    independent, so workers can derive the stream for any trial index
    directly — the key to exact sequential/parallel fuzzing parity.
    @raise Invalid_argument if [i] is negative. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0 .. bound-1].
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [0, 1). *)

val pick : t -> 'a list -> 'a
(** Uniform element of a nonempty list.
    @raise Invalid_argument on an empty list. *)

val shuffle : t -> 'a list -> 'a list
(** Uniform permutation (Fisher–Yates). *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] draws [k] distinct elements of [xs] uniformly,
    in arbitrary order.  @raise Invalid_argument if [k] exceeds
    [List.length xs] or is negative. *)
