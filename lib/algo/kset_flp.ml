module Pid = Ksa_sim.Pid
module Value = Ksa_sim.Value
module Digraph = Ksa_dgraph.Digraph
module Source = Ksa_dgraph.Source

let kset_l ~n ~f =
  if f < 0 || f >= n then invalid_arg "Kset_flp.kset_l";
  n - f

let consensus_l ~n = (n + 2) / 2

let decisions_bound ~n ~l = n / l

let solvable ~n ~f ~k = k * n > (k + 1) * f

module Make (P : sig
  val l : int
end) =
struct
  type message =
    | Hello
    | Report of Value.t * Pid.t list
        (** proposal value and the stage-1 heard list of the sender *)

  type state = {
    n : int;
    me : Pid.t;
    input : Value.t;
    started : bool;
    heard : Pid.t list; (* stage-1 senders, arrival order, deduped *)
    in_stage2 : bool;
    reports : (Value.t * Pid.t list) Pid.Map.t; (* own report included *)
    need : Pid.Set.t; (* transitive closure of heard-lists, incl. self *)
    decided : bool;
  }

  let name = Printf.sprintf "kset-flp(L=%d)" P.l
  let uses_fd = false

  let init ~n ~me ~input =
    if P.l < 1 || P.l > n then invalid_arg "Kset_flp: need 1 <= L <= n";
    {
      n;
      me;
      input;
      started = false;
      heard = [];
      in_stage2 = false;
      reports = Pid.Map.empty;
      need = Pid.Set.singleton me;
      decided = false;
    }

  let broadcast st msg =
    List.filter_map
      (fun q -> if Pid.equal q st.me then None else Some (q, msg))
      (List.init st.n Fun.id)

  (* Once all needed reports are present, the local knowledge graph is
     exactly the ancestor closure of [me] in the global stage-one
     graph; decide via its minimal source component. *)
  let try_decide st =
    if st.decided || not st.in_stage2 then None
    else if not (Pid.Set.for_all (fun q -> Pid.Map.mem q st.reports) st.need)
    then None
    else begin
      let known = Pid.Set.elements st.need in
      let compact = Hashtbl.create 16 in
      List.iteri (fun i q -> Hashtbl.replace compact q i) known;
      let preds =
        Array.of_list
          (List.map
             (fun q ->
               let _, heard_q = Pid.Map.find q st.reports in
               List.filter_map (Hashtbl.find_opt compact) heard_q)
             known)
      in
      let g = Digraph.of_pred_lists preds in
      let src = Source.decision_source g (Hashtbl.find compact st.me) in
      let min_vertex = List.fold_left min (List.hd src) src in
      let winner = List.nth known min_vertex in
      let value, _ = Pid.Map.find winner st.reports in
      Some value
    end

  let absorb_report st q (v, heard_q) =
    if Pid.Map.mem q st.reports then st
    else
      {
        st with
        reports = Pid.Map.add q (v, heard_q) st.reports;
        need =
          List.fold_left
            (fun acc u -> Pid.Set.add u acc)
            (Pid.Set.add q st.need) heard_q;
      }

  let enter_stage2 st =
    let st =
      absorb_report { st with in_stage2 = true } st.me (st.input, st.heard)
    in
    (st, broadcast st (Report (st.input, st.heard)))

  let step st ~received ~fd =
    ignore fd;
    let st, hello_sends =
      if st.started then (st, [])
      else ({ st with started = true }, broadcast st Hello)
    in
    let st =
      List.fold_left
        (fun st (src, msg) ->
          match msg with
          | Hello ->
              if List.mem src st.heard then st
              else { st with heard = st.heard @ [ src ] }
          | Report (v, heard_q) -> absorb_report st src (v, heard_q))
        st received
    in
    let st, report_sends =
      if (not st.in_stage2) && List.length st.heard >= P.l - 1 then
        enter_stage2 st
      else (st, [])
    in
    match try_decide st with
    | Some v -> ({ st with decided = true }, hello_sends @ report_sends, Some v)
    | None -> (st, hello_sends @ report_sends, None)

  (* [heard] is a deduplicated set kept in arrival order, and every
     consumer is order-insensitive: membership ([List.mem]), the
     stage-2 threshold ([List.length]), the [need] closure (set
     union), and [try_decide]'s predecessor lists (a digraph edge set,
     and [decision_source] is a function of the graph).  Sorting it —
     and the heard lists inside received reports — is therefore
     behaviour-preserving, and collapses the (L-1)! arrival orders
     that lead to the same stage-2 report.

     Two stronger erasures on top of the sort, both of dead state:

     - once [in_stage2], nothing reads [heard] again — the threshold
       test is gated on [not in_stage2] and [enter_stage2] snapshotted
       the list into [reports]/the broadcast — so late Hello arrivals
       only grow a write-only field.  Freezing it to [] collapses the
       2^(n-1) subsets of stragglers a stage-2 process may yet hear.

     - once [decided], [try_decide] short-circuits, no send can fire
       ([started] and [in_stage2] both hold), and the decision value
       already left through [step]'s result — the whole
       [heard]/[reports]/[need] ledger is write-only.  Resetting it
       makes every decided process a single sink state per (me, input),
       however many stragglers it still absorbs.

     Both satisfy the {!Algorithm.S.canon} contract: [step] emits the
     same sends and decision from the erased state, and erasure
     commutes with the writes [step] performs on the erased fields.

     [reports] and [need] keep the tree shape their insertion order
     built, so they are rebuilt from their bindings in key order:
     equal binding sets then give [=] states, which intern once. *)
  let canon st =
    if st.decided then
      {
        st with
        heard = [];
        reports = Pid.Map.empty;
        need = Pid.Set.singleton st.me;
      }
    else
      {
        st with
        heard = (if st.in_stage2 then [] else List.sort compare st.heard);
        reports =
          Pid.Map.fold
            (fun q (v, h) acc -> Pid.Map.add q (v, List.sort compare h) acc)
            st.reports Pid.Map.empty;
        need = Pid.Set.of_list (Pid.Set.elements st.need);
      }

  let canon_message = function
    | Hello -> Hello
    | Report (v, heard) -> Report (v, List.sort compare heard)

  (* A corrupted sender may replay a Hello or claim any candidate
     value with an {e empty} heard list — the empty list makes it a
     predecessor-free source in the receiver's decision graph, the
     strongest lie this algorithm can be told (any non-empty heard
     list only weakens the forged report's influence). *)
  let forge_pool ~n:_ ~values =
    Hello :: List.map (fun v -> Report (v, [])) values

  let pp_message ppf = function
    | Hello -> Format.pp_print_string ppf "hello"
    | Report (v, heard) ->
        Format.fprintf ppf "report(%a, [%a])" Value.pp v
          (Format.pp_print_list ~pp_sep:Format.pp_print_space Pid.pp)
          heard

  let pp_state ppf st =
    Format.fprintf ppf "{%a stage=%s heard=%d reports=%d}" Pid.pp st.me
      (if st.in_stage2 then "2" else "1")
      (List.length st.heard)
      (Pid.Map.cardinal st.reports)
end
