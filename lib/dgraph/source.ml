let source_components g =
  let t = Condensation.compute g in
  let comps = List.map (fun c -> t.Condensation.members.(c)) (Condensation.sources t) in
  List.sort compare comps

let source_component_count g = List.length (source_components g)

(* Components of the condensation DAG from which [c0] is reachable,
   via BFS on reversed DAG edges. *)
let dag_ancestors dag c0 =
  let size = Digraph.n dag in
  let seen = Array.make size false in
  let rec bfs frontier =
    match frontier with
    | [] -> ()
    | c :: rest ->
        let next =
          List.filter
            (fun p ->
              if seen.(p) then false
              else begin
                seen.(p) <- true;
                true
              end)
            (Digraph.pred dag c)
        in
        bfs (List.rev_append next rest)
  in
  seen.(c0) <- true;
  bfs [ c0 ];
  seen

let reachable_sources g v =
  let t = Condensation.compute g in
  let seen = dag_ancestors t.Condensation.dag (Condensation.component_of t v) in
  let srcs =
    List.filter (fun c -> seen.(c)) (Condensation.sources t)
  in
  List.sort compare (List.map (fun c -> t.Condensation.members.(c)) srcs)

let decision_source g v =
  match reachable_sources g v with
  | [] -> assert false (* Lemma 7: impossible *)
  | first :: _ -> first (* sorted by smallest member: deterministic rule *)

(* [u] lies in a source component iff it reaches each of its
   ancestors back: every [w] with [u]'s bit [w] set has bit [u] set.
   Top-level recursion, so the kernel allocates no closure. *)
let rec in_source anc u w =
  w = Array.length anc
  || (anc.(u) land (1 lsl w) = 0 || anc.(w) land (1 lsl u) <> 0)
     && in_source anc u (w + 1)

let rec first_source anc cands u =
  if u = Array.length anc then assert false (* Lemma 7: impossible *)
  else if cands land (1 lsl u) <> 0 && in_source anc u 0 then u
  else first_source anc cands (u + 1)

let min_source_ancestor anc v =
  let n = Array.length anc in
  if n > Sys.int_size || v < 0 || v >= n then
    invalid_arg "Source.min_source_ancestor";
  (* bitset Warshall: once round [k] is done, [anc.(q)] holds every
     vertex with a path to [q] whose inner vertices are all [<= k] *)
  for k = 0 to n - 1 do
    let bit = 1 lsl k and through = anc.(k) in
    for q = 0 to n - 1 do
      if anc.(q) land bit <> 0 then anc.(q) <- anc.(q) lor through
    done
  done;
  first_source anc (anc.(v) lor (1 lsl v)) 0

let max_source_components ~n ~delta =
  if n < 0 || delta < 0 then invalid_arg "Source.max_source_components";
  n / (delta + 1)

let lemma6_holds g =
  let delta = Digraph.min_in_degree g in
  if delta <= 0 || Digraph.n g = 0 then true
  else
    List.exists (fun c -> List.length c >= delta + 1) (source_components g)

let lemma7_holds g =
  let delta = Digraph.min_in_degree g in
  if delta <= 0 || Digraph.n g = 0 then true
  else
    let weak = Weak_components.compute g in
    List.for_all
      (fun wc ->
        let sub, back = Digraph.induced g wc in
        (* a source component of g inside this weak component is also a
           source component of the induced subgraph, and vice versa,
           because no edges cross weak-component boundaries *)
        List.exists
          (fun c -> List.length c >= delta + 1)
          (List.map (List.map (fun v -> back.(v))) (source_components sub)))
      weak

let unique_source_if_majority g =
  let delta = Digraph.min_in_degree g in
  if delta <= 0 || 2 * delta < Digraph.n g then true
  else source_component_count g = 1
