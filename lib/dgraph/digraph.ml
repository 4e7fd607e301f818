exception Invalid_vertex of int

type t = {
  size : int;
  succs : int array array; (* sorted, deduped, no self-loops *)
  preds : int array array; (* sorted, deduped, no self-loops *)
}

let n g = g.size

let check_vertex size v = if v < 0 || v >= size then raise (Invalid_vertex v)

let sort_dedup l =
  let sorted = List.sort_uniq compare l in
  Array.of_list sorted

let build size edge_list =
  let succ_l = Array.make size [] and pred_l = Array.make size [] in
  let add (u, v) =
    check_vertex size u;
    check_vertex size v;
    if u <> v then begin
      succ_l.(u) <- v :: succ_l.(u);
      pred_l.(v) <- u :: pred_l.(v)
    end
  in
  List.iter add edge_list;
  {
    size;
    succs = Array.map sort_dedup succ_l;
    preds = Array.map sort_dedup pred_l;
  }

let create ~n ~edges =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  build n edges

let empty size = create ~n:size ~edges:[]

let complete size =
  let edges = ref [] in
  for u = 0 to size - 1 do
    for v = 0 to size - 1 do
      if u <> v then edges := (u, v) :: !edges
    done
  done;
  create ~n:size ~edges:!edges

let of_pred_lists pred_lists =
  let size = Array.length pred_lists in
  let edges = ref [] in
  Array.iteri
    (fun v preds -> List.iter (fun u -> edges := (u, v) :: !edges) preds)
    pred_lists;
  build size !edges

let succ g v =
  check_vertex g.size v;
  Array.to_list g.succs.(v)

let pred g v =
  check_vertex g.size v;
  Array.to_list g.preds.(v)

let out_degree g v =
  check_vertex g.size v;
  Array.length g.succs.(v)

let in_degree g v =
  check_vertex g.size v;
  Array.length g.preds.(v)

let min_in_degree g =
  if g.size = 0 then 0
  else Array.fold_left (fun acc a -> min acc (Array.length a)) max_int g.preds

let edges g =
  let acc = ref [] in
  for u = g.size - 1 downto 0 do
    let out = g.succs.(u) in
    for i = Array.length out - 1 downto 0 do
      acc := (u, out.(i)) :: !acc
    done
  done;
  !acc

let induced g vs =
  let vs = List.sort_uniq compare vs in
  List.iter (check_vertex g.size) vs;
  let back = Array.of_list vs in
  let fwd = Hashtbl.create (Array.length back) in
  Array.iteri (fun i v -> Hashtbl.replace fwd v i) back;
  let keep = edges g in
  let sub_edges =
    List.filter_map
      (fun (u, v) ->
        match (Hashtbl.find_opt fwd u, Hashtbl.find_opt fwd v) with
        | Some u', Some v' -> Some (u', v')
        | _, _ -> None)
      keep
  in
  (build (Array.length back) sub_edges, back)

let vertices g = List.init g.size Fun.id

let equal g1 g2 = g1.size = g2.size && edges g1 = edges g2

let pp ppf g =
  let pp_edge ppf (u, v) = Format.fprintf ppf "%d->%d" u v in
  Format.fprintf ppf "digraph(%d){%a}" g.size
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_edge)
    (edges g)
