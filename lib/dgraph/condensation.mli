(** The condensation DAG of a directed graph.

    Contracting every strongly connected component of [g] into a
    single vertex yields a directed acyclic graph.  Section VI of the
    paper calls a component whose contracted vertex has in-degree 0 a
    {e source component}; every process in the knowledge graph has a
    directed incoming path from all processes of at least one source
    component (Lemma 7), which is what makes local decision on a
    common clique value possible. *)

type t = {
  scc : Scc.result;  (** The underlying component structure. *)
  dag : Digraph.t;
      (** The condensation: one vertex per component, an edge
          [a → b] iff some original edge goes from component [a] to
          component [b] with [a <> b].  Acyclic by construction. *)
  members : int list array;
      (** [members.(c)] are the original vertices of component [c],
          sorted increasing. *)
}

val compute : Digraph.t -> t

val component_of : t -> int -> int
(** Component index of an original vertex. *)

val sources : t -> int list
(** Indices of source components (in-degree 0 in the DAG), sorted. *)
