(** ABD register emulation: shared memory from message passing with
    majority quorums (Attiya–Bar-Noy–Dolev), the substrate behind the
    paper's citation [9] in the proof of Theorem 10, condition (C).

    Each process owns one single-writer multi-reader register,
    replicated at every process as a (timestamp, value) pair.  A write
    by the owner installs a higher timestamp at a majority; a read
    collects pairs from a majority, picks the highest timestamp, and
    {e writes it back} to a majority before returning — the write-back
    is what upgrades regularity to atomicity.  Any two majorities
    intersect, which is exactly the Σ = Σ{_1} intersection property;
    majority liveness (a correct majority) is Σ's liveness.  The
    emulation therefore tolerates any minority of crashes, at any
    time.

    Processes run a fixed script of operations and decide their input
    when done (the decision is bookkeeping so schedules terminate; the
    artifact of interest is the operation log, extracted from the
    final states and checked with {!Register.check_atomic}). *)

module Pid = Ksa_sim.Pid
module Value = Ksa_sim.Value

type op_spec =
  | Write_input  (** Write your input value to your own register. *)
  | Write_value of Value.t
  | Read_of of Pid.t  (** Read the register owned by the given process. *)

module Make (S : sig
  val script : n:int -> me:Pid.t -> op_spec list

  val write_back : bool
  (** [true] for the full ABD protocol.  [false] yields the {e weak}
      (regular-but-not-atomic) variant whose reads skip the write-back
      phase: a deliberately broken ablation that exhibits new/old
      inversions under adversarial schedules — the checker's positive
      control, and a demonstration of why the write-back (the second
      quorum access, Σ again) is load-bearing. *)
end) : sig
  include Ksa_sim.Algorithm.S

  val ops_of :
    Ksa_sim.Run.t -> state_of:(Pid.t -> state) -> Register.op list
  (** The global operation history: each process's log, with
      own-step indices converted to global step times via the run's
      event trace.  Only completed operations appear. *)
end

val write_then_read_all : n:int -> me:Pid.t -> op_spec list
(** The canonical torture script: write your input, then read every
    register (your own included), then write a second version, then
    read everything again. *)
