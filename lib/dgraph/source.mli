(** Source components and the combinatorial lemmas of Section VI.

    Lemma 6: every finite directed simple graph in which each vertex
    has in-degree at least δ > 0 has a source component of size at
    least δ + 1.

    Lemma 7: within every weakly connected component there is at least
    one such source component.

    Consequences used by the protocol: a graph with minimum in-degree
    δ has at most ⌊n / (δ+1)⌋ source components, and if 2δ ≥ n the
    source component is unique. *)

val source_components : Digraph.t -> int list list
(** The source components (in-degree-0 components of the
    condensation), each as a sorted vertex list; the list of
    components is sorted by smallest member. *)

val source_component_count : Digraph.t -> int

val reachable_sources : Digraph.t -> int -> int list list
(** [reachable_sources g v] lists the source components from which
    [v] has a directed incoming path (including [v]'s own component if
    it is a source).  Lemma 7 guarantees this list is nonempty. *)

val decision_source : Digraph.t -> int -> int list
(** [decision_source g v] is the canonical source component assigned
    to [v] by the protocol's deterministic rule: among all source
    components reaching [v], the one containing the smallest vertex
    id.  This is the "initial clique" generalization: every process
    applies the same local rule, and the number of distinct results
    over all [v] is bounded by the number of source components. *)

val min_source_ancestor : int array -> int -> int
(** [min_source_ancestor pred v] is the smallest vertex of a source
    component from which [v] is reachable: the smallest vertex of
    [decision_source g v], computed without building [g].  [pred.(u)]
    is the predecessor set of vertex [u] as a bitmask (bit [w] set iff
    [w → u]; bits at or above [Array.length pred] are ignored), so a
    graph has at most [Sys.int_size] vertices.  The kernel closes
    [pred] in place into ancestor sets by bitset Warshall, then
    returns the smallest [u] among [v] and its ancestors whose own
    ancestors all have [u] as an ancestor.  It takes O(n²) word
    operations and allocates nothing; [pred] is overwritten.
    @raise Invalid_argument unless [Array.length pred <= Sys.int_size]
    and [0 <= v < Array.length pred]. *)

val max_source_components : n:int -> delta:int -> int
(** The bound ⌊n / (δ+1)⌋ on the number of source components of a
    graph with [n] vertices and minimum in-degree [delta] ≥ 0
    (δ+1 is the minimum size of a source component per Lemma 6).
    @raise Invalid_argument if [delta < 0] or [n < 0]. *)

val lemma6_holds : Digraph.t -> bool
(** Checks Lemma 6 on a concrete graph: if δ = min in-degree > 0,
    some source component has ≥ δ + 1 vertices.  (Vacuously true when
    δ = 0.)  Intended for property-based testing. *)

val lemma7_holds : Digraph.t -> bool
(** Checks Lemma 7: every weakly connected component contains a
    source component of size ≥ δ + 1 where δ is the {e global}
    minimum in-degree (as in the paper's statement), provided
    δ > 0. *)

val unique_source_if_majority : Digraph.t -> bool
(** Checks the remark after Lemma 7: if 2δ ≥ n (with δ = minimum
    in-degree > 0) then there is exactly one source component. *)
