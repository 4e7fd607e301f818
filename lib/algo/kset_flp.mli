(** The Section VI protocol: k-set agreement with initially dead
    processes, generalizing the consensus protocol of Fischer, Lynch
    and Paterson for initial crashes.

    The protocol has two stages, parameterized by L:

    - {b Stage 1}: broadcast a hello message; wait until hellos from
      L−1 distinct other processes have arrived.
    - {b Stage 2}: broadcast a report carrying the proposal value and
      the list of processes heard in stage 1; wait for reports from
      every process heard in stage 1 and, transitively, from every
      process mentioned in any received report.

    The reports determine (consistently across processes) the
    knowledge graph G with an edge u → w iff w heard u in stage 1.
    Every vertex of G has in-degree ≥ L−1, so by Lemmas 6 and 7 each
    process has an incoming path from at least one source component of
    size ≥ L, and there are at most ⌊n/L⌋ source components.  Every
    process decides the proposal of the smallest-id member of the
    smallest source component it is connected to, hence at most
    ⌊n/L⌋ distinct decisions system-wide.

    The rule is computed on predecessor bitmasks, one OCaml int per
    pid ({!Ksa_dgraph.Source.min_source_ancestor}): no digraph or
    condensation is built at a decision.  So a system has at most
    {!max_n} processes.

    With L = n − f the protocol tolerates f initially dead processes
    and solves k-set agreement for every k ≥ ⌊n/(n−f)⌋ — and by
    Theorem 8 this is tight: solvability holds iff kn > (k+1)f.
    With L = ⌈(n+1)/2⌉ (and f < n/2) it is exactly the FLP
    initial-crash consensus protocol. *)

val kset_l : n:int -> f:int -> int
(** The paper's choice L = n − f for k-set agreement with f initial
    crashes.  @raise Invalid_argument unless [0 <= f < n]. *)

val consensus_l : n:int -> int
(** L = ⌈(n+1)/2⌉, the FLP consensus choice. *)

val decisions_bound : n:int -> l:int -> int
(** ⌊n/L⌋: the protocol's bound on distinct decisions. *)

val solvable : n:int -> f:int -> k:int -> bool
(** Theorem 8's border: [kn > (k+1)f]. *)

val max_n : int
(** [Sys.int_size - 2] (61 on 64-bit hosts): the largest n the
    protocol runs with, the explorer's crash-set bitmask bound too. *)

module Make (P : sig
  val l : int
end) : Ksa_sim.Algorithm.S
(** The protocol with the given L.  [init] raises [Invalid_argument]
    unless [1 <= l <= n] and [n <= max_n]; with
    L = 1 the protocol degenerates to decide-own-value (the f = n−1
    case of Theorem 8, where only k = n is solvable). *)
