(** Consensus with the failure detector pair (Σ, Ω): the k = 1
    endpoint of Corollary 13.

    A single-decree Paxos-style protocol in which the quorums are the
    outputs of Σ (Definition 4 with k = 1: any two outputs, at any
    processes and times, intersect) and the proposer role is gated by
    Ω's leader output.  Safety (agreement and validity) rests only on
    quorum intersection, so it holds under arbitrary asynchrony and
    any number of crashes; termination follows from Σ's liveness
    (eventually quorums contain only correct processes) and Ω's
    eventual leadership — matching the fact that (Σ, Ω) is the
    weakest failure detector for consensus with up to n−1 crashes
    (Delporte-Gallet et al., cited as [10]).

    The algorithm requires an oracle whose views contain a [Quorum]
    and a [Leaders] component (e.g.
    [History.combine (Sigma.blocks ~k:1 …) (Omega.gen ~k:1 …)]). *)

module A : Ksa_sim.Algorithm.S
