(** Finite directed simple graphs on vertices [0 .. n-1].

    This is the combinatorial substrate of Section VI of the paper:
    the "who heard from whom" knowledge graph [G] built in the first
    stage of the FLP-style protocol is a digraph in which every vertex
    has in-degree at least [L - 1].  All graphs are simple: no
    parallel edges and no self-loops (a process does not receive its
    own stage-one message). *)

type t
(** Immutable directed simple graph. *)

exception Invalid_vertex of int
(** Raised when a vertex outside [0 .. n-1] is supplied. *)

val create : n:int -> edges:(int * int) list -> t
(** [create ~n ~edges] builds a graph on [n] vertices with the given
    directed edges [(u, v)] meaning {i u → v}.  Duplicate edges are
    deduplicated; self-loops are silently dropped (the graph is kept
    simple).  @raise Invalid_vertex on an out-of-range endpoint,
    @raise Invalid_argument if [n < 0]. *)

val empty : int -> t
(** [empty n] is the edgeless graph on [n] vertices. *)

val complete : int -> t
(** [complete n] has every edge [u → v] with [u <> v]. *)

val of_pred_lists : int list array -> t
(** [of_pred_lists preds] builds the graph in which vertex [v] has
    exactly the in-neighbours [preds.(v)] (deduplicated, self-loops
    dropped).  This is the natural constructor for FLP stage-one
    knowledge graphs: [preds.(v)] is the set of processes [v] heard
    from. *)

val n : t -> int
(** Number of vertices. *)

val succ : t -> int -> int list
(** Out-neighbours, sorted increasing. *)

val pred : t -> int -> int list
(** In-neighbours, sorted increasing. *)

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val min_in_degree : t -> int
(** Minimum in-degree over all vertices; [0] on the empty graph.
    This is the δ of Lemmas 6 and 7. *)

val edges : t -> (int * int) list
(** All edges, sorted lexicographically. *)

val induced : t -> int list -> t * int array
(** [induced g vs] is the subgraph induced by the vertex set [vs]
    (deduplicated), with vertices renumbered [0 .. |vs|-1] in the
    sorted order of [vs].  The second component maps new indices back
    to original vertex ids. *)

val vertices : t -> int list
(** [0; 1; ...; n-1]. *)

val equal : t -> t -> bool
(** Structural equality (same vertex count, same edge set). *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, e.g. [digraph(4){0->1; 2->3}]. *)
