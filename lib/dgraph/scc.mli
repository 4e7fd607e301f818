(** Strongly connected components (Tarjan's algorithm, iterative).

    Used to identify the {e source components} of the stage-one
    knowledge graph in the Section VI protocol: a process decides on a
    value chosen from the unique source component it is reachable
    from. *)

type result = {
  count : int;  (** Number of strongly connected components. *)
  comp_of : int array;
      (** [comp_of.(v)] is the component index of vertex [v], in
          [0 .. count-1].  Indices are assigned in reverse topological
          order of the condensation: if there is an edge from
          component [a] to component [b] (with [a <> b]) then
          [comp_of] satisfies [a > b].  In particular component [0] is
          a sink of the condensation. *)
}

val compute : Digraph.t -> result
(** Tarjan's strongly-connected-components algorithm; linear in
    vertices + edges; iterative, so safe on deep graphs. *)

val components : Digraph.t -> int list list
(** The components as sorted vertex lists, indexed consistently with
    [comp_of] (element [i] of the list is component [i]). *)
