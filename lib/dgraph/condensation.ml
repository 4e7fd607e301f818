type t = { scc : Scc.result; dag : Digraph.t; members : int list array }

let compute g =
  let scc = Scc.compute g in
  let count = scc.Scc.count in
  let members = Array.make count [] in
  for v = Digraph.n g - 1 downto 0 do
    let c = scc.Scc.comp_of.(v) in
    members.(c) <- v :: members.(c)
  done;
  let dag_edges =
    List.filter_map
      (fun (u, v) ->
        let cu = scc.Scc.comp_of.(u) and cv = scc.Scc.comp_of.(v) in
        if cu <> cv then Some (cu, cv) else None)
      (Digraph.edges g)
  in
  { scc; dag = Digraph.create ~n:count ~edges:dag_edges; members }

let component_of t v = t.scc.Scc.comp_of.(v)

let sources t =
  List.filter (fun c -> Digraph.in_degree t.dag c = 0) (Digraph.vertices t.dag)
