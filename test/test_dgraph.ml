module D = Ksa_dgraph.Digraph
module Scc = Ksa_dgraph.Scc
module Cond = Ksa_dgraph.Condensation
module Source = Ksa_dgraph.Source
module Weak = Ksa_dgraph.Weak_components
module Gen = Ksa_dgraph.Gen
module Rng = Ksa_prim.Rng
module Listx = Ksa_prim.Listx

(* ---------- Digraph basics ---------- *)

let edge_count g = List.length (D.edges g)
let has_edge g u v = List.mem v (D.succ g u)

(* the reversed graph: v's in-neighbours are its out-neighbours in g *)
let transpose g = D.of_pred_lists (Array.init (D.n g) (D.succ g))

let test_create_dedup () =
  let g = D.create ~n:3 ~edges:[ (0, 1); (0, 1); (1, 2) ] in
  Alcotest.(check int) "edges deduped" 2 (edge_count g);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2) ] (D.edges g)

let test_self_loops_dropped () =
  let g = D.create ~n:2 ~edges:[ (0, 0); (0, 1); (1, 1) ] in
  Alcotest.(check int) "only the real edge" 1 (edge_count g)

let test_invalid_vertex () =
  Alcotest.check_raises "bad edge" (D.Invalid_vertex 5) (fun () ->
      ignore (D.create ~n:3 ~edges:[ (0, 5) ]))

let test_degrees () =
  let g = D.create ~n:4 ~edges:[ (0, 2); (1, 2); (3, 2); (2, 0) ] in
  Alcotest.(check int) "in 2" 3 (D.in_degree g 2);
  Alcotest.(check int) "out 2" 1 (D.out_degree g 2);
  Alcotest.(check int) "min in" 0 (D.min_in_degree g);
  Alcotest.(check (list int)) "pred 2" [ 0; 1; 3 ] (D.pred g 2);
  Alcotest.(check (list int)) "succ 2" [ 0 ] (D.succ g 2)

let test_has_edge () =
  let g = D.create ~n:3 ~edges:[ (0, 1) ] in
  Alcotest.(check bool) "has" true (has_edge g 0 1);
  Alcotest.(check bool) "not reverse" false (has_edge g 1 0)

let test_transpose () =
  let g = D.create ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let t = transpose g in
  Alcotest.(check (list (pair int int))) "reversed" [ (1, 0); (2, 1) ] (D.edges t);
  Alcotest.(check bool) "double transpose" true (D.equal g (transpose t))

let test_complete () =
  let g = D.complete 4 in
  Alcotest.(check int) "edges" 12 (edge_count g);
  Alcotest.(check int) "min in-degree" 3 (D.min_in_degree g)

let test_induced () =
  let g = D.create ~n:5 ~edges:[ (0, 1); (1, 4); (4, 0); (2, 3) ] in
  let sub, back = D.induced g [ 0; 1; 4 ] in
  Alcotest.(check int) "sub vertices" 3 (D.n sub);
  Alcotest.(check int) "sub edges" 3 (edge_count sub);
  Alcotest.(check (list int)) "back map" [ 0; 1; 4 ] (Array.to_list back)

let test_of_pred_lists () =
  let g = D.of_pred_lists [| [ 1; 2 ]; [ 2 ]; [] |] in
  Alcotest.(check (list int)) "pred 0" [ 1; 2 ] (D.pred g 0);
  Alcotest.(check (list int)) "pred 1" [ 2 ] (D.pred g 1);
  Alcotest.(check int) "min in" 0 (D.min_in_degree g)

(* ---------- SCC ---------- *)

let same r u v = r.Scc.comp_of.(u) = r.Scc.comp_of.(v)

let test_scc_cycle () =
  let g = Gen.cycle 5 in
  let r = Scc.compute g in
  Alcotest.(check int) "one component" 1 r.Scc.count

let test_scc_dag () =
  let g = D.create ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3) ] in
  let r = Scc.compute g in
  Alcotest.(check int) "all singletons" 4 r.Scc.count

let test_scc_two_cycles () =
  let g = D.create ~n:5 ~edges:[ (0, 1); (1, 0); (2, 3); (3, 4); (4, 2); (1, 2) ] in
  let r = Scc.compute g in
  Alcotest.(check int) "two components" 2 r.Scc.count;
  Alcotest.(check bool) "0~1" true (same r 0 1);
  Alcotest.(check bool) "2~4" true (same r 2 4);
  Alcotest.(check bool) "1!~2" false (same r 1 2)

let test_scc_components_listing () =
  let g = D.create ~n:4 ~edges:[ (0, 1); (1, 0) ] in
  let comps = List.sort compare (Scc.components g) in
  Alcotest.(check (list (list int))) "components" [ [ 0; 1 ]; [ 2 ]; [ 3 ] ] comps

let test_scc_deep_path_no_overflow () =
  (* iterative Tarjan must survive a long path *)
  let n = 50_000 in
  let g = D.create ~n ~edges:(List.init (n - 1) (fun i -> (i, i + 1))) in
  let r = Scc.compute g in
  Alcotest.(check int) "n components" n r.Scc.count

(* reference check: mutual reachability on small graphs *)
let reachable g u =
  let n = D.n g in
  let seen = Array.make n false in
  let rec go = function
    | [] -> ()
    | v :: rest ->
        let next = List.filter (fun w -> not seen.(w)) (D.succ g v) in
        List.iter (fun w -> seen.(w) <- true) next;
        go (next @ rest)
  in
  seen.(u) <- true;
  go [ u ];
  seen

let prop_scc_matches_mutual_reachability =
  QCheck.Test.make ~name:"scc = mutual reachability" ~count:60
    QCheck.(pair small_int (int_range 1 7))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let g = Gen.gnp rng ~n ~p:0.3 in
      let r = Scc.compute g in
      let ok = ref true in
      for u = 0 to n - 1 do
        let ru = reachable g u in
        for v = 0 to n - 1 do
          let rv = reachable g v in
          let mutual = ru.(v) && rv.(u) in
          if same r u v <> mutual then ok := false
        done
      done;
      !ok)

(* ---------- Condensation ---------- *)

let test_condensation_acyclic () =
  let g = D.create ~n:6 ~edges:[ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2); (4, 5) ] in
  let t = Cond.compute g in
  Alcotest.(check int) "dag acyclic: singleton components" (D.n t.Cond.dag)
    (Scc.compute t.Cond.dag).Scc.count;
  Alcotest.(check int) "component of 0 = of 1" (Cond.component_of t 0)
    (Cond.component_of t 1)

(* components are numbered in reverse topological order (scc.mli) *)
let test_condensation_topological () =
  let g = D.create ~n:4 ~edges:[ (0, 1); (1, 2); (0, 3) ] in
  let t = Cond.compute g in
  List.iter
    (fun (u, v) ->
      let cu = Cond.component_of t u and cv = Cond.component_of t v in
      if cu <> cv && cu <= cv then
        Alcotest.failf "edge %d->%d violates topological order" u v)
    (D.edges g)

let test_sources_sinks () =
  let g = D.create ~n:4 ~edges:[ (0, 1); (1, 2); (3, 2) ] in
  let t = Cond.compute g in
  Alcotest.(check int) "two sources" 2 (List.length (Cond.sources t));
  let sinks = List.filter (fun c -> D.out_degree t.Cond.dag c = 0) (D.vertices t.Cond.dag) in
  Alcotest.(check int) "one sink" 1 (List.length sinks)

(* ---------- Weak components ---------- *)

let test_weak_components () =
  let g = D.create ~n:6 ~edges:[ (0, 1); (2, 1); (3, 4) ] in
  Alcotest.(check (list (list int)))
    "components" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ] ] (Weak.compute g);
  Alcotest.(check bool) "same" true (Weak.same g 0 2);
  Alcotest.(check bool) "not same" false (Weak.same g 0 5);
  Alcotest.(check int) "count" 3 (Weak.count g)

(* ---------- Source components and the lemmas ---------- *)

let test_cycle_single_source () =
  let g = Gen.cycle 7 in
  Alcotest.(check int) "one source of size 7" 1 (Source.source_component_count g);
  Alcotest.(check (list (list int)))
    "the cycle itself"
    [ List.init 7 Fun.id ]
    (Source.source_components g)

let test_union_of_cliques_sources () =
  let g = Gen.union_of_cliques ~sizes:[ 3; 3; 2 ] in
  Alcotest.(check int) "three sources" 3 (Source.source_component_count g);
  Alcotest.(check bool) "lemma6" true (Source.lemma6_holds g);
  Alcotest.(check bool) "lemma7" true (Source.lemma7_holds g)

let test_decision_source_reachability () =
  (* clique {0,1} feeding a chain 2 -> 3 *)
  let g = D.create ~n:4 ~edges:[ (0, 1); (1, 0); (1, 2); (2, 3) ] in
  Alcotest.(check (list int)) "p3's source" [ 0; 1 ] (Source.decision_source g 3);
  Alcotest.(check (list int)) "p0's own" [ 0; 1 ] (Source.decision_source g 0)

let test_reachable_sources_multiple () =
  (* two cliques feeding a common vertex *)
  let g =
    D.create ~n:5 ~edges:[ (0, 1); (1, 0); (2, 3); (3, 2); (1, 4); (3, 4) ]
  in
  Alcotest.(check int) "p4 reaches both" 2
    (List.length (Source.reachable_sources g 4));
  Alcotest.(check (list int)) "deterministic pick" [ 0; 1 ]
    (Source.decision_source g 4)

let pred_masks g =
  Array.init (D.n g) (fun u -> List.fold_left (fun m w -> m lor (1 lsl w)) 0 (D.pred g u))

(* the clique/chain graph above, then two cliques where the one
   holding the smallest vertex is fed back from the other, so it is
   no source; the kernel closes its argument in place, so a second
   call on the closed masks must allocate nothing and answer the same *)
let test_min_source_ancestor () =
  let chain = pred_masks (D.create ~n:4 ~edges:[ (0, 1); (1, 0); (1, 2); (2, 3) ]) in
  Alcotest.(check int) "p3's winner" 0 (Source.min_source_ancestor chain 3);
  let two =
    D.create ~n:5 ~edges:[ (2, 3); (3, 2); (0, 1); (1, 0); (1, 4); (3, 4); (4, 0) ]
  in
  let masks = pred_masks two in
  Alcotest.(check int) "p4 reaches only {2,3}" 2 (Source.min_source_ancestor masks 4);
  Alcotest.(check (float 0.)) "allocates nothing" 0.
    (Test_util.words_per_loop 1000 (fun () -> ignore (Source.min_source_ancestor masks 4)));
  Alcotest.(check int) "closed masks, same answer" 2 (Source.min_source_ancestor masks 4);
  Alcotest.check_raises "vertex out of range"
    (Invalid_argument "Source.min_source_ancestor") (fun () ->
      ignore (Source.min_source_ancestor [| 0 |] 1))

let test_max_source_components_bound () =
  Alcotest.(check int) "floor(10/3)" 3 (Source.max_source_components ~n:10 ~delta:2);
  Alcotest.(check int) "floor(5/5)" 1 (Source.max_source_components ~n:5 ~delta:4)

let test_unique_source_majority_clique () =
  let g = D.complete 6 in
  Alcotest.(check bool) "unique" true (Source.unique_source_if_majority g);
  Alcotest.(check int) "count 1" 1 (Source.source_component_count g)

let prop_lemma6 =
  QCheck.Test.make ~name:"Lemma 6 on random min-in-degree graphs" ~count:120
    QCheck.(triple small_int (int_range 2 12) (int_range 1 6))
    (fun (seed, n, delta) ->
      QCheck.assume (delta < n);
      let rng = Rng.create ~seed in
      let g = Gen.min_in_degree rng ~n ~delta in
      D.min_in_degree g >= delta && Source.lemma6_holds g)

let prop_lemma7 =
  QCheck.Test.make ~name:"Lemma 7 on random min-in-degree graphs" ~count:120
    QCheck.(triple small_int (int_range 2 12) (int_range 1 6))
    (fun (seed, n, delta) ->
      QCheck.assume (delta < n);
      let rng = Rng.create ~seed in
      let g = Gen.min_in_degree rng ~n ~delta in
      Source.lemma7_holds g)

let prop_source_count_bound =
  QCheck.Test.make ~name:"#sources <= floor(n/(delta+1))" ~count:120
    QCheck.(triple small_int (int_range 2 12) (int_range 1 6))
    (fun (seed, n, delta) ->
      QCheck.assume (delta < n);
      let rng = Rng.create ~seed in
      let g = Gen.min_in_degree rng ~n ~delta in
      Source.source_component_count g
      <= Source.max_source_components ~n ~delta:(D.min_in_degree g))

let prop_unique_source_majority =
  QCheck.Test.make ~name:"2*delta >= n => unique source" ~count:80
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, n) ->
      let delta = (n + 1) / 2 in
      QCheck.assume (delta < n && delta > 0);
      let rng = Rng.create ~seed in
      let g = Gen.min_in_degree rng ~n ~delta in
      Source.unique_source_if_majority g && Source.source_component_count g = 1)

let prop_condensation_topological =
  QCheck.Test.make ~name:"condensation topological order on random graphs"
    ~count:80
    QCheck.(pair small_int (int_range 1 9))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let g = Gen.gnp rng ~n ~p:0.35 in
      let t = Cond.compute g in
      List.for_all
        (fun (u, v) -> Cond.component_of t u >= Cond.component_of t v)
        (D.edges g))

let prop_transpose_preserves_scc =
  QCheck.Test.make ~name:"transpose preserves strong components" ~count:80
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let g = Gen.gnp rng ~n ~p:0.3 in
      let r = Scc.compute g and rt = Scc.compute (transpose g) in
      r.Scc.count = rt.Scc.count
      && List.for_all
           (fun (u, v) ->
             same r u v = same rt u v)
           (List.concat_map
              (fun u -> List.map (fun v -> (u, v)) (D.vertices g))
              (D.vertices g)))

let prop_induced_subgraph_edges =
  QCheck.Test.make ~name:"induced subgraph keeps exactly internal edges"
    ~count:80
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let g = Gen.gnp rng ~n ~p:0.4 in
      let vs = List.filter (fun v -> v mod 2 = 0) (D.vertices g) in
      let sub, back = D.induced g vs in
      let expected =
        List.filter
          (fun (u, v) -> List.mem u vs && List.mem v vs)
          (D.edges g)
      in
      let got =
        List.map (fun (u, v) -> (back.(u), back.(v))) (D.edges sub)
      in
      List.sort compare got = List.sort compare expected)

(* The kset-flp decision kernel against the Tarjan-condensation
   reference, on random digraphs with cycles and a random vertex *)
let prop_min_source_ancestor =
  QCheck.Test.make ~name:"min_source_ancestor = min of decision_source" ~count:500
    QCheck.(quad small_int (int_range 1 12) small_nat (int_range 1 6))
    (fun (seed, n, v, tenths) ->
      let g = Gen.gnp (Rng.create ~seed) ~n ~p:(float tenths /. 10.) in
      let v = v mod n in
      Source.min_source_ancestor (pred_masks g) v
      = List.fold_left min max_int (Source.decision_source g v))

let prop_knowledge_graph_shape =
  QCheck.Test.make ~name:"knowledge graph: dead vertices isolated" ~count:60
    QCheck.(pair small_int (int_range 3 10))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let alive = List.filter (fun p -> p mod 2 = 0) (List.init n Fun.id) in
      QCheck.assume (List.length alive >= 2);
      let wait_for = List.length alive - 1 in
      let g = Gen.knowledge_graph rng ~n ~alive ~wait_for in
      List.for_all
        (fun v ->
          if List.mem v alive then D.in_degree g v = wait_for
          else D.in_degree g v = 0 && D.out_degree g v = 0)
        (List.init n Fun.id))

let suites =
  [
    ( "dgraph.digraph",
      [
        Alcotest.test_case "create dedups" `Quick test_create_dedup;
        Alcotest.test_case "self loops dropped" `Quick test_self_loops_dropped;
        Alcotest.test_case "invalid vertex" `Quick test_invalid_vertex;
        Alcotest.test_case "degrees" `Quick test_degrees;
        Alcotest.test_case "has_edge" `Quick test_has_edge;
        Alcotest.test_case "transpose" `Quick test_transpose;
        Alcotest.test_case "complete" `Quick test_complete;
        Alcotest.test_case "induced" `Quick test_induced;
        Alcotest.test_case "of_pred_lists" `Quick test_of_pred_lists;
      ] );
    ( "dgraph.scc",
      [
        Alcotest.test_case "cycle" `Quick test_scc_cycle;
        Alcotest.test_case "dag" `Quick test_scc_dag;
        Alcotest.test_case "two cycles" `Quick test_scc_two_cycles;
        Alcotest.test_case "components listing" `Quick test_scc_components_listing;
        Alcotest.test_case "deep path (iterative)" `Slow test_scc_deep_path_no_overflow;
      ] );
    ( "dgraph.condensation",
      [
        Alcotest.test_case "acyclic" `Quick test_condensation_acyclic;
        Alcotest.test_case "topological order" `Quick test_condensation_topological;
        Alcotest.test_case "sources and sinks" `Quick test_sources_sinks;
      ] );
    ( "dgraph.weak",
      [ Alcotest.test_case "components" `Quick test_weak_components ] );
    ( "dgraph.source",
      [
        Alcotest.test_case "cycle single source" `Quick test_cycle_single_source;
        Alcotest.test_case "cliques" `Quick test_union_of_cliques_sources;
        Alcotest.test_case "decision source" `Quick test_decision_source_reachability;
        Alcotest.test_case "multiple sources" `Quick test_reachable_sources_multiple;
        Alcotest.test_case "min source ancestor" `Quick test_min_source_ancestor;
        Alcotest.test_case "max bound" `Quick test_max_source_components_bound;
        Alcotest.test_case "majority unique" `Quick test_unique_source_majority_clique;
      ] );
    Test_util.qsuite "dgraph.properties"
      [
        prop_scc_matches_mutual_reachability;
        prop_lemma6;
        prop_lemma7;
        prop_source_count_bound;
        prop_unique_source_majority;
        prop_condensation_topological;
        prop_transpose_preserves_scc;
        prop_induced_subgraph_edges;
        prop_knowledge_graph_shape;
        prop_min_source_ancestor;
      ];
  ]
