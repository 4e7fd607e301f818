type result = { count : int; comp_of : int array }

(* Iterative Tarjan.  We simulate the recursion with an explicit stack
   of (vertex, next-successor-index) frames so that worst-case path
   graphs of tens of thousands of vertices do not overflow the OCaml
   stack. *)
let compute g =
  let size = Digraph.n g in
  let index = Array.make size (-1) in
  let lowlink = Array.make size 0 in
  let on_stack = Array.make size false in
  let comp_of = Array.make size (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let frame_vertex = Array.make (size + 1) 0 in
  let frame_succ = Array.make (size + 1) 0 in
  let succs = Array.init size (fun v -> Array.of_list (Digraph.succ g v)) in
  let start root =
    let top = ref 0 in
    let push v =
      index.(v) <- !next_index;
      lowlink.(v) <- !next_index;
      incr next_index;
      stack := v :: !stack;
      on_stack.(v) <- true;
      frame_vertex.(!top) <- v;
      frame_succ.(!top) <- 0;
      incr top
    in
    push root;
    while !top > 0 do
      let fi = !top - 1 in
      let v = frame_vertex.(fi) in
      let si = frame_succ.(fi) in
      let out = succs.(v) in
      if si < Array.length out then begin
        frame_succ.(fi) <- si + 1;
        let w = out.(si) in
        if index.(w) = -1 then push w
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
      end
      else begin
        (* post-visit of v *)
        decr top;
        if !top > 0 then begin
          let parent = frame_vertex.(!top - 1) in
          lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
        end;
        if lowlink.(v) = index.(v) then begin
          (* v is the root of a component: pop the Tarjan stack *)
          let rec pop () =
            match !stack with
            | [] -> assert false
            | w :: rest ->
                stack := rest;
                on_stack.(w) <- false;
                comp_of.(w) <- !next_comp;
                if w <> v then pop ()
          in
          pop ();
          incr next_comp
        end
      end
    done
  in
  for v = 0 to size - 1 do
    if index.(v) = -1 then start v
  done;
  { count = !next_comp; comp_of }

let components g =
  let { count; comp_of } = compute g in
  let buckets = Array.make count [] in
  for v = Digraph.n g - 1 downto 0 do
    buckets.(comp_of.(v)) <- v :: buckets.(comp_of.(v))
  done;
  Array.to_list buckets
