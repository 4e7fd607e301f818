(** The experiment harness: one entry per experiment of DESIGN.md
    (E1–E14), each regenerating a paper claim as a printed table plus a
    machine-checkable verdict.

    The paper has no measured tables or figures — its quantitative
    content is the set of solvability borders and constructions.  Each
    experiment therefore pairs the {e predicted} border (from
    {!Border}) with {e behavioural evidence} produced by the simulator
    (witness runs, screenings, pasted executions, validated
    histories), and reports whether they agree. *)

type verdict = { id : string; claim : string; holds : bool; detail : string }

val pp_verdict : Format.formatter -> verdict -> unit

val table : (string * (Format.formatter -> verdict)) list
(** Every experiment by id ("E1" to "E14"), in order; each entry's
    claim is stated beside it in [experiments.ml]. *)

val all : ?only:string list -> Format.formatter -> verdict list
(** Runs the experiments of {!table} whose ids are in [only] (default
    every one), in order, printing their tables and then one summary
    line per verdict. *)

val exit_code : verdict list -> int
(** 0 when every verdict holds, else 1 (a MISMATCH): the exit status
    of [ksa experiments]. *)
