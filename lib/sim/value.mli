(** Proposal and decision values.

    The paper draws values from a finite set V with |V| > n so that
    every process can start with a distinct proposal (footnote 1).
    Integers serve; the canonical "all distinct" assignment gives
    process [i] the value [i]. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val distinct_inputs : int -> t array
(** [distinct_inputs n] assigns value [i] to process [i]: the
    worst-case input of the impossibility arguments. *)
