(* Parity of each explorer across domain counts, and soundness of the
   packed configuration keys.

   The drivers admit every configuration against one shared sharded
   key table (Ksa_prim.Shardset) with a ticket-clamped admission
   counter, and move the frontier through work-stealing deques;
   because exploration folds delivered batches in canonical (sender,
   payload) order, the reachable key-set is a function of the initial
   configuration alone, and every search order — one domain's fixed
   depth-first walk, or stealing workers at any domain count — must
   report exactly the same [configs_visited], [terminal_runs], and
   verdict whenever no budget truncates the search. *)

module Sim = Ksa_sim
module FP = Sim.Failure_pattern
module K2 = Ksa_algo.Kset_flp.Make (struct
  let l = 2
end)

let distinct = Sim.Value.distinct_inputs
let no_check _ = None

(* ---------- explore: one domain vs several ---------- *)

let stats_of name = function
  | Sim.Explorer.Safe s -> s
  | Sim.Explorer.Violation _ -> Alcotest.fail (name ^ ": unexpected violation")

let check_stats_equal name (a : Sim.Explorer.stats) (b : Sim.Explorer.stats) =
  Alcotest.(check int)
    (name ^ ": configs_visited")
    a.Sim.Explorer.configs_visited b.Sim.Explorer.configs_visited;
  Alcotest.(check int)
    (name ^ ": terminal_runs")
    a.Sim.Explorer.terminal_runs b.Sim.Explorer.terminal_runs;
  Alcotest.(check bool)
    (name ^ ": budget_exhausted")
    a.Sim.Explorer.budget_exhausted b.Sim.Explorer.budget_exhausted

let test_parity_explore_n3 () =
  let module Ex = Sim.Explorer.Make (K2) in
  let seq =
    stats_of "seq"
      (Ex.explore ~n:3 ~inputs:(distinct 3)
         ~pattern:(FP.none ~n:3) ~check:no_check ())
  in
  Alcotest.(check bool) "untruncated" false seq.Sim.Explorer.budget_exhausted;
  List.iter
    (fun domains ->
      let par =
        stats_of "par"
          (Ex.explore ~domains ~n:3 ~inputs:(distinct 3)
             ~pattern:(FP.none ~n:3) ~check:no_check ())
      in
      check_stats_equal (Printf.sprintf "n3 domains=%d" domains) seq par)
    [ 2; 4; 8 ]

let test_parity_explore_n4 () =
  (* Per-sender delivery on n=4 is a multi-minute search; the
     empty-or-all policy keeps the parity check exhaustive yet quick *)
  let module Ex = Sim.Explorer.Make (K2) in
  let policy = Sim.Explorer.Empty_or_all in
  let seq =
    stats_of "seq"
      (Ex.explore ~policy ~n:4 ~inputs:(distinct 4)
         ~pattern:(FP.none ~n:4) ~check:no_check ())
  in
  Alcotest.(check bool) "untruncated" false seq.Sim.Explorer.budget_exhausted;
  let par =
    stats_of "par"
      (Ex.explore ~domains:3 ~policy ~n:4
         ~inputs:(distinct 4) ~pattern:(FP.none ~n:4) ~check:no_check ())
  in
  check_stats_equal "n4 empty-or-all" seq par

let test_parity_terminal_sets () =
  (* beyond the counts: the parallel driver must reach exactly the
     sequential terminal decision sets, (pid, value) pairs as
     {!Test_util.terminal_sets} collects them *)
  let module Ex = Sim.Explorer.Make (K2) in
  let collect domains =
    match
      Test_util.terminal_sets ~correct:[ 0; 1; 2 ] (fun ~check ->
          Ex.explore ~domains ~n:3 ~inputs:(distinct 3)
            ~pattern:(FP.none ~n:3) ~check ())
    with
    | Sim.Explorer.Safe _, sets -> sets
    | Sim.Explorer.Violation _, _ -> Alcotest.fail "unexpected violation"
  in
  let seq = collect 1 in
  Alcotest.(check bool) "some terminal decision set" true (seq <> []);
  Alcotest.(check bool) "same terminal decision sets" true (seq = collect 2)

(* A terminal configuration is counted once although its expansion
   can run twice: a [check] that raises on the first terminal
   configuration kills its worker, the configuration goes back on the
   stack already admitted, and whoever pops it next checks it again
   and counts it.  Every count matches the run without the fault. *)
let test_terminal_counted_once () =
  let module Ex = Sim.Explorer.Make (K2) in
  let n = 3 in
  let run ?check reduction domains =
    let check = Option.value check ~default:no_check in
    stats_of "explore"
      (Ex.explore ~reduction ~domains ~n ~inputs:(distinct n)
         ~pattern:(FP.none ~n) ~check ())
  in
  List.iter
    (fun reduction ->
      let baseline = run reduction 1 in
      List.iter
        (fun domains ->
          let fired = Atomic.make false in
          let bomb decisions =
            if
              List.length decisions = n
              && Atomic.compare_and_set fired false true
            then failwith "injected fault";
            None
          in
          let label =
            Printf.sprintf "%s at d=%d"
              (Sim.Canon.reduction_to_string reduction)
              domains
          in
          let got = run ~check:bomb reduction domains in
          Alcotest.(check bool) (label ^ ": the fault fired") true
            (Atomic.get fired);
          check_stats_equal label baseline got)
        [ 1; 2 ])
    [ Sim.Canon.No_reduction; Sim.Canon.Symmetry ]

let test_parity_violation () =
  (* a false claim about the trivial algorithm: every driver must
     refute it (no lost violations) *)
  let module Ex = Sim.Explorer.Make (Ksa_algo.Trivial.A) in
  let consensus_check decisions =
    let values =
      List.sort_uniq compare (List.map (fun (_, v, _) -> v) decisions)
    in
    if List.length values > 1 then Some "two values decided" else None
  in
  (match
     Ex.explore ~n:2 ~inputs:(distinct 2) ~pattern:(FP.none ~n:2)
       ~check:consensus_check ()
   with
  | Sim.Explorer.Violation v ->
      Alcotest.(check string) "seq reason" "two values decided" v.reason
  | Sim.Explorer.Safe _ -> Alcotest.fail "sequential driver lost the violation");
  match
    Ex.explore ~domains:2 ~n:2 ~inputs:(distinct 2) ~pattern:(FP.none ~n:2)
      ~check:consensus_check ()
  with
  | Sim.Explorer.Violation v ->
      Alcotest.(check string) "par reason" "two values decided" v.reason
  | Sim.Explorer.Safe _ -> Alcotest.fail "parallel driver lost the violation"

(* ---------- explore_with_crashes vs explore_with_crashes_par ---------- *)

let r_stats = function
  | Sim.Explorer.All_paths_decide s -> ("all_paths_decide", [], [], s)
  | Sim.Explorer.Stuck { crashed; undecided_correct; stats } ->
      ("stuck", crashed, undecided_correct, stats)
  | Sim.Explorer.Indeterminate _ ->
      Alcotest.fail "unexpected budget truncation"
  | Sim.Explorer.Safety_violation _ ->
      Alcotest.fail "unexpected safety violation"

let check_resilient_equal name a b =
  let va, ca, ua, sa = r_stats a and vb, cb, ub, sb = r_stats b in
  Alcotest.(check string) (name ^ ": verdict") va vb;
  Alcotest.(check (list int)) (name ^ ": crashed witness") ca cb;
  Alcotest.(check (list int)) (name ^ ": undecided witness") ua ub;
  check_stats_equal name sa sb

let test_parity_crashes_n3 () =
  let module Ex = Sim.Explorer.Make (K2) in
  let seq =
    Ex.explore_with_crashes ~n:3 ~inputs:(distinct 3) ~crash_budget:1
      ~check:no_check ()
  in
  List.iter
    (fun domains ->
      let par =
        Ex.explore_with_crashes_par ~domains ~n:3 ~inputs:(distinct 3)
          ~crash_budget:1 ~check:no_check ()
      in
      check_resilient_equal
        (Printf.sprintf "crash n3 domains=%d" domains)
        seq par)
    [ 2; 4; 8 ]

let test_parity_crashes_budget0 () =
  let module Ex = Sim.Explorer.Make (K2) in
  check_resilient_equal "crash n3 budget=0"
    (Ex.explore_with_crashes ~n:3 ~inputs:(distinct 3) ~crash_budget:0
       ~check:no_check ())
    (Ex.explore_with_crashes_par ~domains:2 ~n:3 ~inputs:(distinct 3)
       ~crash_budget:0 ~check:no_check ())

let test_parity_crashes_initially_dead () =
  (* L=3 on a 3-process system with one process already dead and one
     adversarial crash allowed: the subsystem can be trapped, and both
     drivers must exhibit the same canonical witness *)
  let module K3 = Ksa_algo.Kset_flp.Make (struct
    let l = 3
  end) in
  let module Ex = Sim.Explorer.Make (K3) in
  let seq =
    Ex.explore_with_crashes ~initially_dead:[ 0 ] ~n:3 ~inputs:(distinct 3)
      ~crash_budget:1 ~check:no_check ()
  in
  let par =
    Ex.explore_with_crashes_par ~domains:2 ~initially_dead:[ 0 ] ~n:3
      ~inputs:(distinct 3) ~crash_budget:1 ~check:no_check ()
  in
  (match seq with
  | Sim.Explorer.Stuck _ -> ()
  | _ -> Alcotest.fail "expected a stuck subsystem");
  check_resilient_equal "crash n3 initially-dead" seq par

let test_parity_reachable_values () =
  (* the valency probe: sequential and multicore drivers must report
     exactly the same reachable decision-value set *)
  let module Ex = Sim.Explorer.Make (K2) in
  let seq =
    Ex.reachable_decision_values ~n:3 ~inputs:(distinct 3) ~crash_budget:1 ()
  in
  Alcotest.(check bool) "multivalent" true (List.length seq > 1);
  List.iter
    (fun domains ->
      let par =
        Test_util.decision_values_par (fun ~check ->
            Ex.explore_with_crashes_par ~domains ~n:3 ~inputs:(distinct 3)
              ~crash_budget:1 ~check ())
      in
      Alcotest.(check (list int))
        (Printf.sprintf "reachable values domains=%d" domains)
        seq par)
    [ 1; 2; 4; 8 ]

(* ---------- budget truncation ---------- *)

let test_truncated_crashes_indeterminate () =
  (* a 10-configuration budget cannot close the n=3 crash-adversarial
     graph: the explorer must refuse to classify rather than claim
     All_paths_decide over an unexpanded frontier *)
  let module Ex = Sim.Explorer.Make (K2) in
  (match
     Ex.explore_with_crashes ~max_configs:10 ~n:3 ~inputs:(distinct 3)
       ~crash_budget:1 ~check:no_check ()
   with
  | Sim.Explorer.Indeterminate s ->
      Alcotest.(check bool)
        "seq exhausted" true s.Sim.Explorer.budget_exhausted;
      (* the admission clamp is exact: the sequential driver visits
         precisely the budget, never budget + frontier-width *)
      Alcotest.(check int)
        "seq visits exactly the budget" 10 s.Sim.Explorer.configs_visited
  | _ -> Alcotest.fail "sequential: expected Indeterminate under truncation");
  match
    Ex.explore_with_crashes_par ~domains:2 ~max_configs:10 ~n:3
      ~inputs:(distinct 3) ~crash_budget:1 ~check:no_check ()
  with
  | Sim.Explorer.Indeterminate s ->
      Alcotest.(check bool)
        "par exhausted" true s.Sim.Explorer.budget_exhausted;
      Alcotest.(check bool)
        "par stays within the budget" true
        (s.Sim.Explorer.configs_visited > 0
        && s.Sim.Explorer.configs_visited <= 10)
  | _ -> Alcotest.fail "parallel: expected Indeterminate under truncation"

let test_degenerate_budget_parity () =
  (* max_configs = 0 admits nothing, not even the root: both crash
     drivers must report Indeterminate with zero stats and never call
     [check] — the parallel driver used to expand the root before any
     budget accounting *)
  let module Ex = Sim.Explorer.Make (K2) in
  let checks = ref 0 in
  let counting _ =
    incr checks;
    None
  in
  let expect name = function
    | Sim.Explorer.Indeterminate s ->
        Alcotest.(check int)
          (name ^ ": nothing visited") 0 s.Sim.Explorer.configs_visited;
        Alcotest.(check int)
          (name ^ ": no terminals") 0 s.Sim.Explorer.terminal_runs;
        Alcotest.(check bool)
          (name ^ ": exhausted") true s.Sim.Explorer.budget_exhausted
    | _ -> Alcotest.fail (name ^ ": expected Indeterminate on a zero budget")
  in
  expect "seq"
    (Ex.explore_with_crashes ~max_configs:0 ~n:3 ~inputs:(distinct 3)
       ~crash_budget:1 ~check:counting ());
  expect "par"
    (Ex.explore_with_crashes_par ~domains:2 ~max_configs:0 ~n:3
       ~inputs:(distinct 3) ~crash_budget:1 ~check:counting ());
  Alcotest.(check int) "check never ran" 0 !checks

let test_truncated_explore_parity () =
  (* the ticketed admission clamp is fused with the shared dedup
     check, so tickets below the budget are dense and issued exactly
     once no matter how workers race: both drivers must visit exactly
     the budget, never budget + frontier-width *)
  let module Ex = Sim.Explorer.Make (K2) in
  let max_configs = 5 in
  let seq =
    stats_of "seq"
      (Ex.explore ~max_configs ~n:3 ~inputs:(distinct 3)
         ~pattern:(FP.none ~n:3) ~check:no_check ())
  in
  Alcotest.(check bool)
    "seq exhausted" true seq.Sim.Explorer.budget_exhausted;
  Alcotest.(check int)
    "seq visits exactly the budget" max_configs
    seq.Sim.Explorer.configs_visited;
  let par =
    stats_of "par"
      (Ex.explore ~domains:2 ~max_configs ~n:3 ~inputs:(distinct 3)
         ~pattern:(FP.none ~n:3) ~check:no_check ())
  in
  Alcotest.(check bool)
    "par exhausted" true par.Sim.Explorer.budget_exhausted;
  Alcotest.(check int)
    "par visits exactly the budget" max_configs
    par.Sim.Explorer.configs_visited

let test_exact_budget_is_not_truncation () =
  (* a budget exactly the size of the reachable space must complete
     with budget_exhausted = false: exhaustion means an unseen
     configuration was turned away, not that the budget was reached *)
  let module Ex = Sim.Explorer.Make (K2) in
  let full =
    stats_of "full"
      (Ex.explore ~n:3 ~inputs:(distinct 3) ~pattern:(FP.none ~n:3)
         ~check:no_check ())
  in
  let again =
    stats_of "again"
      (Ex.explore ~max_configs:full.Sim.Explorer.configs_visited ~n:3
         ~inputs:(distinct 3) ~pattern:(FP.none ~n:3) ~check:no_check ())
  in
  Alcotest.(check int)
    "same space" full.Sim.Explorer.configs_visited
    again.Sim.Explorer.configs_visited;
  Alcotest.(check bool)
    "exact budget completes" false again.Sim.Explorer.budget_exhausted

(* ---------- crash-mask arithmetic ---------- *)

module Mask = Sim.Explorer.Mask

let naive_popcount m =
  let rec go i acc =
    if i >= Sys.int_size then acc else go (i + 1) (acc + ((m lsr i) land 1))
  in
  go 0 0

let test_mask_edges () =
  Alcotest.(check int) "popcount 0" 0 (Mask.popcount 0);
  Alcotest.(check int) "popcount 1" 1 (Mask.popcount 1);
  Alcotest.(check int)
    "popcount max_int" (Sys.int_size - 1)
    (Mask.popcount max_int);
  Alcotest.(check int) "popcount -1" Sys.int_size (Mask.popcount (-1));
  Alcotest.(check int) "popcount min_int" 1 (Mask.popcount min_int);
  Alcotest.(check (list int))
    "to_list" [ 0; 2 ]
    (Mask.to_list ~n:3 (Mask.add (Mask.add 0 2) 0));
  Alcotest.(check bool) "mem empty" false (Mask.mem 0 0)

let prop_popcount_matches_naive =
  QCheck.Test.make ~name:"Mask.popcount = naive bit fold" ~count:500 QCheck.int
    (fun m -> Mask.popcount m = naive_popcount m)

let prop_mask_add_mem =
  QCheck.Test.make ~name:"add/mem/popcount agree" ~count:200
    QCheck.(pair int (int_range 0 (Sys.int_size - 2)))
    (fun (m, p) ->
      let m' = Mask.add m p in
      Mask.mem m' p
      && Mask.popcount m'
         = Mask.popcount m + (if Mask.mem m p then 0 else 1)
      && Mask.add m' p = m')

let prop_mask_compare_lists =
  QCheck.Test.make ~name:"compare_lists = compare of the pid lists"
    ~count:1000
    QCheck.(pair (int_range 0 255) (int_range 0 255))
    (fun (a, b) ->
      let sign x = Int.compare x 0 in
      sign (Mask.compare_lists a b)
      = sign (compare (Mask.to_list ~n:8 a) (Mask.to_list ~n:8 b)))

let prop_mask_to_list_sound =
  QCheck.Test.make ~name:"to_list = members below n" ~count:200
    QCheck.(pair (int_range 0 255) (int_range 0 8))
    (fun (m, n) ->
      Mask.to_list ~n m
      = List.filter (fun p -> Mask.mem m p) (List.init n Fun.id))

(* ---------- crash-graph node rows ---------- *)

module Row = Sim.Explorer.Row

(* The reference classifier: the int-record algorithm the rows
   replaced, over a node's successor ids as an [int array] and its
   masks as ints.  Backwards reachability from the complete nodes with
   CSR predecessors and an explicit stack; the witness is the least
   stuck node by mask, then by ascending undecided pid list. *)
let reference_classify ~succs ~mask ~undecided =
  let count = Array.length succs in
  let off = Array.make (count + 1) 0 in
  Array.iter (Array.iter (fun s -> off.(s) <- off.(s) + 1)) succs;
  for id = 1 to count do
    off.(id) <- off.(id) + off.(id - 1)
  done;
  let pred = Array.make off.(count) 0 in
  Array.iteri
    (fun id ss ->
      Array.iter
        (fun s ->
          off.(s) <- off.(s) - 1;
          pred.(off.(s)) <- id)
        ss)
    succs;
  let can_decide = Array.make count false in
  let stack = Array.make count 0 and top = ref 0 in
  let mark id =
    if not can_decide.(id) then begin
      can_decide.(id) <- true;
      stack.(!top) <- id;
      incr top
    end
  in
  Array.iteri (fun id u -> if u = 0 then mark id) undecided;
  while !top > 0 do
    decr top;
    let id = stack.(!top) in
    for j = off.(id) to off.(id + 1) - 1 do
      mark pred.(j)
    done
  done;
  let stuck = ref None in
  for id = 0 to count - 1 do
    if not can_decide.(id) then
      match !stuck with
      | Some (m, u)
        when m < mask.(id)
             || (m = mask.(id) && Mask.compare_lists u undecided.(id) <= 0) ->
          ()
      | Some _ | None -> stuck := Some (mask.(id), undecided.(id))
  done;
  !stuck

(* A graph as the reference reads it: [None] is an unexpanded slot,
   which the rows store as [Row.empty] (no successors, mask 0,
   undecided -1). *)
type graph = (int array * int * int) option array

let rows_of (g : graph) =
  Array.map
    (function
      | None -> Row.empty
      | Some (ss, m, u) -> Row.make ~mask:m ~undecided:u ss (Array.length ss))
    g

let agree (g : graph) =
  let field f d = Array.map (function None -> d | Some r -> f r) g in
  let rows = rows_of g in
  Row.classify ~count:(Array.length rows) (Array.get rows)
  = reference_classify
      ~succs:(field (fun (ss, _, _) -> ss) [||])
      ~mask:(field (fun (_, m, _) -> m) 0)
      ~undecided:(field (fun (_, _, u) -> u) (-1))

(* 0-300 nodes.  Masks draw from small sets that include bit 60, the
   top pid bit; a quarter of the expanded nodes are complete, a tenth
   of the slots are unexpanded, and a node may list itself or repeat a
   successor.  Nodes from [trap] on only reach each other and none is
   complete: cycles that reach no complete node. *)
let gen_graph : graph QCheck.Gen.t =
  let open QCheck.Gen in
  let big = 1 lsl 60 in
  let masks = [| 0; 1; 2; 5; big; big lor 3 |] in
  let unds = [| 1; 2; 3; 4; 6; big; big lor 1 |] in
  int_range 0 300 >>= fun count ->
  int_range 0 count >>= fun trap ->
  let node id =
    frequency
      [
        (1, return None);
        ( 9,
          let lo = if id >= trap then trap else 0 in
          let* k = int_range 0 5 in
          let* ss =
            array_repeat k
              (frequency [ (1, return id); (4, int_range lo (count - 1)) ])
          in
          let* m = oneofa masks in
          let* u =
            if id >= trap then oneofa unds
            else frequency [ (1, return 0); (3, oneofa unds) ]
          in
          return (Some (ss, m, u)) );
      ]
  in
  let rec nodes id acc =
    if id < 0 then return (Array.of_list acc)
    else node id >>= fun n -> nodes (id - 1) (n :: acc)
  in
  nodes (count - 1) []

let print_graph (g : graph) =
  String.concat "; "
    (Array.to_list
       (Array.mapi
          (fun id -> function
            | None -> Printf.sprintf "%d: -" id
            | Some (ss, m, u) ->
                Printf.sprintf "%d: [%s] %#x %#x" id
                  (String.concat "," (Array.to_list (Array.map string_of_int ss)))
                  m u)
          g))

let prop_row_classify_matches_reference =
  QCheck.Test.make ~name:"byte-row classifier = int-array reference"
    ~count:500
    (QCheck.make ~print:print_graph gen_graph)
    agree

let prop_row_round_trip =
  QCheck.Test.make ~name:"a row reads back its masks and successors"
    ~count:300
    QCheck.(
      triple (int_range 0 max_int) (int_range 0 max_int)
        (array_of_size Gen.(int_range 0 40) (int_range 0 Row.max_nodes)))
    (fun (m, u, ss) ->
      let r = Row.make ~mask:m ~undecided:u ss (Array.length ss) in
      Row.mask r = m && Row.undecided r = u && Row.succs r = ss
      && not (Row.is_empty r))

(* A chain of 10,000 nodes, each pointing at the next: with only the
   last complete, marking walks the whole chain back one node at a
   time; with every node complete, the mark stack holds all of them at
   once; with the last one stuck, every node is. *)
let test_row_chain () =
  let n = 10_000 in
  let chain ~complete =
    Array.init n (fun id ->
        let ss = if id + 1 < n then [| id + 1 |] else [| id |] in
        Some (ss, 1, if complete id then 0 else 2))
  in
  List.iter
    (fun (name, complete, want) ->
      let g = chain ~complete in
      Alcotest.(check bool) (name ^ ": reference agrees") true (agree g);
      let rows = rows_of g in
      Alcotest.(check (option (pair int int)))
        name want
        (Row.classify ~count:n (Array.get rows)))
    [
      ("last complete", (fun id -> id = n - 1), None);
      ("all complete", (fun _ -> true), None);
      ("none complete", (fun _ -> false), Some (1, 2));
    ]

let test_row_budget_bound () =
  let module Ex = Sim.Explorer.Make (K2) in
  match
    Ex.explore_with_crashes ~max_configs:(Row.max_nodes + 1) ~n:3
      ~inputs:(distinct 3) ~crash_budget:1 ~check:no_check ()
  with
  | exception Sim.Explorer.Not_explorable msg ->
      Alcotest.(check string)
        "reason" "Explorer: max_configs above 2147483647: crash-graph ids are int32"
        msg
  | _ -> Alcotest.fail "a budget above Row.max_nodes ran"

(* ---------- key soundness ---------- *)

module E2 = Sim.Engine.Make (K2)

let step c pid deliver =
  match
    E2.apply ~pattern:(FP.none ~n:3) c (Sim.Adversary.Step { pid; deliver })
  with
  | Some c' -> c'
  | None -> Alcotest.fail "step refused"

let test_key_ignores_send_interleaving () =
  (* the same pending multiset assembled under two different send
     interleavings (hence different message ids) must collide *)
  let init () = E2.init ~record:false ~n:3 ~inputs:(distinct 3) () in
  let c01 = step (step (init ()) 0 []) 1 [] in
  let c10 = step (step (init ()) 1 []) 0 [] in
  Alcotest.(check bool) "keys collide" true
    (String.equal (E2.key c01) (E2.key c10));
  Alcotest.(check bool) "orbit keys collide" true
    (String.equal
       (E2.key ~reduction:Sim.Canon.Symmetry c01)
       (E2.key ~reduction:Sim.Canon.Symmetry c10))

let test_key_separates_distinct_configs () =
  let init = E2.init ~record:false ~n:3 ~inputs:(distinct 3) () in
  let c0 = step init 0 [] in
  let c1 = step init 1 [] in
  Alcotest.(check bool) "initial vs stepped" false
    (String.equal (E2.key init) (E2.key c0));
  Alcotest.(check bool) "different steppers" false
    (String.equal (E2.key c0) (E2.key c1));
  (* delivering a message changes the pending multiset and the state *)
  let c01 = step (step init 0 []) 1 [] in
  let inbox2 = List.map fst (E2.inbox c01 2) in
  Alcotest.(check bool) "inbox non-empty" true (inbox2 <> []);
  let delivered = step c01 2 inbox2 in
  let undelivered = step c01 2 [] in
  Alcotest.(check bool) "delivery distinguishes" false
    (String.equal (E2.key delivered) (E2.key undelivered))

let test_key_extra_discriminates () =
  (* the crash explorers fold the crashed-set mask into the key *)
  let c = E2.init ~record:false ~n:3 ~inputs:(distinct 3) () in
  Alcotest.(check bool) "masks separate" false
    (String.equal (E2.key ~crashed:0 c) (E2.key ~crashed:1 c));
  Alcotest.(check bool) "same mask collides" true
    (String.equal (E2.key ~crashed:5 c) (E2.key ~crashed:5 c))

let test_key_exploration_agnostic () =
  (* the interning fallback for recorded configurations produces the
     same key as the incremental exploration path *)
  let ce = E2.init ~record:false ~n:3 ~inputs:(distinct 3) () in
  let cr = E2.init ~n:3 ~inputs:(distinct 3) () in
  Alcotest.(check bool) "init keys agree" true
    (String.equal (E2.key ce) (E2.key cr));
  let ce' = step ce 0 [] in
  let cr' = step cr 0 [] in
  Alcotest.(check bool) "stepped keys agree" true
    (String.equal (E2.key ce') (E2.key cr'))

(* ---------- idle-step elision is invisible ----------

   The explorers answer memo-proven idle steps without stepping
   ([Engine.idle_step]).  The literals below were measured before they
   did: verdicts, stats, witnesses, admissions, dedup and orbit hits
   must not move; only the step count may, and it must drop.  The
   crash cells are border cells — kset_flp with L = n - t under a
   k-agreement check, crashed processes keeping their in-flight
   messages.  Each campaign applies its own algorithm functor, so its
   transition memo starts cold whatever ran before it.  The [sym]
   counts were measured again once kset-flp's [canon]
   rebuilt its sets and maps from their bindings, which merges
   configurations: their verdicts, witnesses and terminal counts
   stayed, and their step bounds, from before elision, still hold. *)

module Metrics = Ksa_prim.Metrics

let k_check ~k decisions =
  let values = List.sort_uniq compare (List.map (fun (_, v, _) -> v) decisions) in
  if List.length values > k then Some "k-agreement"
  else None

let stats_token (s : Sim.Explorer.stats) =
  Printf.sprintf "visited=%d terminals=%d exhausted=%b" s.configs_visited
    s.terminal_runs s.budget_exhausted

let pids l = String.concat "," (List.map string_of_int l)

let resilient_token (o : Sim.Explorer.resilient_outcome) =
  match o with
  | All_paths_decide s -> "all-paths-decide " ^ stats_token s
  | Safety_violation { decisions; reason } ->
      Printf.sprintf "violation %s [%s]" reason
        (String.concat ";"
           (List.map (fun (p, v, t) -> Printf.sprintf "(%d,%d,%d)" p v t)
              decisions))
  | Stuck { crashed; undecided_correct; stats } ->
      Printf.sprintf "stuck {%s}/{%s} %s" (pids crashed)
        (pids undecided_correct) (stats_token stats)
  | Indeterminate s -> "indeterminate " ^ stats_token s

type before_idle = {
  verdict : string;
  admitted : int;
  dedup : int;
  orbit : int;
  steps : int;  (** [sim.steps] before elision: an upper bound now *)
}

(* [also]: further counters that must keep their literal values *)
let check_invisible label want run =
  let before = Metrics.snapshot () in
  let verdict = run () in
  let d = Metrics.delta ~before ~after:(Metrics.snapshot ()) in
  let count name = Option.value ~default:0 (List.assoc_opt name d) in
  Alcotest.(check string) (label ^ ": verdict") want.verdict verdict;
  List.iter
    (fun (name, v) -> Alcotest.(check int) (label ^ ": " ^ name) v (count name))
    (("explore.admitted", want.admitted)
    :: ("explore.dedup.hits", want.dedup)
    :: [ ("explore.orbit_hits", want.orbit) ]);
  let steps = count "sim.steps" in
  Alcotest.(check bool)
    (Printf.sprintf "%s: sim.steps %d < %d" label steps want.steps)
    true (steps < want.steps);
  Alcotest.(check bool)
    (label ^ ": explore.idle_skipped > 0")
    true
    (count "explore.idle_skipped" > 0)

let crash_cell ?domains ~n ~t ~k ~policy reduction () =
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = n - t
  end) in
  let module Ex = Sim.Explorer.Make (K) in
  let inputs = distinct n and check = k_check ~k in
  resilient_token
    (match domains with
    | None ->
        Ex.explore_with_crashes ~reduction ~policy ~drop_on_crash:false ~n
          ~inputs ~crash_budget:t ~check ()
    | Some d ->
        Ex.explore_with_crashes_par ~domains:d ~reduction ~policy
          ~drop_on_crash:false ~n ~inputs ~crash_budget:t ~check ())

let test_idle_crash_cells () =
  let per_sender = Sim.Explorer.Per_sender in
  let stuck =
    {
      verdict = "stuck {0}/{1,2} visited=19654 terminals=4283 exhausted=false";
      admitted = 19654;
      dedup = 65153;
      orbit = 0;
      steps = 71819;
    }
  and decides =
    {
      verdict = "all-paths-decide visited=1169 terminals=808 exhausted=false";
      admitted = 1169;
      dedup = 941;
      orbit = 0;
      steps = 1485;
    }
  in
  List.iter
    (fun (label, want, run) -> check_invisible label want run)
    [
      ( "n3 t1 k1",
        stuck,
        crash_cell ~n:3 ~t:1 ~k:1 ~policy:per_sender
          Sim.Canon.No_reduction );
      ( "n3 t1 k1 par(2)",
        stuck,
        crash_cell ~domains:2 ~n:3 ~t:1 ~k:1 ~policy:per_sender
          Sim.Canon.No_reduction );
      ( "n3 t2 k2",
        {
          verdict = "violation k-agreement [(0,0,1);(1,1,2);(2,2,5)]";
          admitted = 38;
          dedup = 7;
          orbit = 0;
          steps = 29;
        },
        crash_cell ~n:3 ~t:2 ~k:2 ~policy:per_sender
          Sim.Canon.No_reduction );
      ( "n3 t2 k3",
        decides,
        crash_cell ~n:3 ~t:2 ~k:3 ~policy:per_sender
          Sim.Canon.No_reduction );
      ( "n3 t2 k3 par(2)",
        decides,
        crash_cell ~domains:2 ~n:3 ~t:2 ~k:3 ~policy:per_sender
          Sim.Canon.No_reduction );
      ( "n4 t1 k1 empty-or-all sym",
        {
          verdict =
            "stuck {0}/{1,2,3} visited=23112 terminals=414 exhausted=false";
          admitted = 23112;
          dedup = 127077;
          orbit = 127077;
          steps = 269144;
        },
        crash_cell ~n:4 ~t:1 ~k:1 ~policy:Sim.Explorer.Empty_or_all
          Sim.Canon.Symmetry );
    ]

(* The n=4 empty-or-all sym border cells, pinned at one and two
   domains: verdict, Stuck witness and stats.  On these cells ranking
   the undecided sets by mask value would pick the same witness;
   {!Ranked} below is the cell where it would not. *)
let test_border_witnesses_n4 () =
  List.iter
    (fun (t, want) ->
      List.iter
        (fun domains ->
          Alcotest.(check string)
            (Printf.sprintf "n4 t%d k1 empty-or-all sym, %d domain(s)" t
               domains)
            want
            (crash_cell ~domains ~n:4 ~t ~k:1
               ~policy:Sim.Explorer.Empty_or_all Sim.Canon.Symmetry ()))
        [ 1; 2 ])
    [
      (1, "stuck {0}/{1,2,3} visited=23112 terminals=414 exhausted=false");
      (2, "stuck {0}/{1,2} visited=111650 terminals=5702 exhausted=false");
    ]

(* A three-process protocol whose only stuck undecided sets, under
   the one crashed set {} (budget 0), are {p1} and {p0,p2}.  p1's
   first step either hears p0's [Here] (then p1 decides and nobody
   ever releases p0 and p2) or releases them with [Go]; p0 and p2
   decide on [Go] and report [Done]; p1 is stranded iff both reports
   arrive in one step, and decides on any other.  The witness must be
   [p0; p2], the smaller pid list, though {p1} is the smaller mask. *)
module Ranked = struct
  type phase = Start | Waiting | Released | Decided | Stranded
  type state = { me : int; phase : phase }
  type message = Here | Go | Done

  let name = "ranked"
  let uses_fd = false
  let init ~n:_ ~me ~input:_ = { me; phase = Start }
  let count m received = List.length (List.filter (fun (_, m') -> m' = m) received)

  let step st ~received ~fd:_ =
    let next phase sends decision = ({ st with phase }, sends, decision) in
    match (st.me, st.phase) with
    | _, (Decided | Stranded) -> next st.phase [] None
    | 1, Start when count Here received > 0 -> next Decided [] (Some 0)
    | 1, Start -> next Released [ (0, Go); (2, Go) ] None
    | 1, Released when count Done received = 2 -> next Stranded [] None
    | 1, Released -> next Decided [] (Some 0)
    | _, (Start | Waiting) when count Go received > 0 ->
        next Decided [ (1, Done) ] (Some 0)
    | 0, Start -> next Waiting [ (1, Here) ] None
    | _ -> next st.phase [] None

  let canon st = st
  let canon_message m = m
  let forge_pool ~n:_ ~values:_ = []
  let pp_state ppf _ = Format.pp_print_string ppf "ranked"
  let pp_message ppf _ = Format.pp_print_string ppf "ranked"
end

let test_witness_ranks_pid_lists () =
  let module Ex = Sim.Explorer.Make (Ranked) in
  List.iter
    (fun domains ->
      match
        Ex.explore_with_crashes ~domains ~n:3 ~inputs:(distinct 3)
          ~crash_budget:0 ~check:no_check ()
      with
      | Sim.Explorer.Stuck { crashed; undecided_correct; _ } ->
          Alcotest.(check (pair (list int) (list int)))
            (Printf.sprintf "witness, %d domain(s)" domains)
            ([], [ 0; 2 ])
            (crashed, undecided_correct)
      | _ -> Alcotest.fail "expected a Stuck verdict")
    [ 1; 2 ]

let test_idle_explore () =
  let run ?domains reduction () =
    let module K = Ksa_algo.Kset_flp.Make (struct
      let l = 2
    end) in
    let module Ex = Sim.Explorer.Make (K) in
    let pattern = FP.none ~n:3 and check = k_check ~k:1 in
    stats_token
      (stats_of "explore"
         (Ex.explore ?domains ~reduction ~n:3 ~inputs:(distinct 3) ~pattern
            ~check ()))
  in
  let unreduced =
    {
      verdict = "visited=4930 terminals=601 exhausted=false";
      admitted = 4930;
      dedup = 20603;
      orbit = 0;
      steps = 25532;
    }
  in
  List.iter
    (fun domains ->
      let tag = match domains with None -> "seq" | Some _ -> "par(2)" in
      check_invisible ("explore none " ^ tag) unreduced
        (run ?domains Sim.Canon.No_reduction))
    [ None; Some 2 ]

(* The crash-free cells at one domain, complete and cut by the config
   budget, under every reduction: admission order, the counters and
   the stats pinned at their values from before successors were keyed
   from their parent.  A dedup hit is now counted when the successor
   is generated, not when it is popped: same totals. *)
let test_free_cells_pinned () =
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = 2
  end) in
  let module Ex = Sim.Explorer.Make (K) in
  let run reduction max_configs () =
    stats_token
      (stats_of "explore"
         (Ex.explore ?max_configs ~reduction ~n:3 ~inputs:(distinct 3)
            ~pattern:(FP.none ~n:3) ~check:(k_check ~k:1) ()))
  in
  List.iter
    (fun (reduction, max_configs, verdict, counts) ->
      let label =
        Printf.sprintf "%s %s"
          (Sim.Canon.reduction_to_string reduction)
          (match max_configs with
          | None -> "complete"
          | Some m -> Printf.sprintf "cut at %d" m)
      in
      let before = Metrics.snapshot () in
      let got = run reduction max_configs () in
      let d = Metrics.delta ~before ~after:(Metrics.snapshot ()) in
      Alcotest.(check string) (label ^ ": stats") verdict got;
      List.iter2
        (fun name want ->
          Alcotest.(check int)
            (label ^ ": " ^ name)
            want
            (Option.value ~default:0 (List.assoc_opt name d)))
        [
          "explore.admitted";
          "explore.dedup.hits";
          "explore.idle_skipped";
          "explore.budget.truncations";
          "sim.steps";
        ]
        counts)
    Sim.Canon.
      [
        ( No_reduction,
          None,
          "visited=4930 terminals=601 exhausted=false",
          [ 4930; 20603; 12552; 0; 12980 ] );
        ( No_reduction,
          Some 1000,
          "visited=1000 terminals=142 exhausted=true",
          [ 1000; 4141; 2562; 18; 2596 ] );
        ( Symmetry,
          None,
          "visited=2238 terminals=74 exhausted=false",
          [ 2238; 11800; 6402; 0; 7635 ] );
        ( Symmetry,
          Some 1000,
          "visited=1000 terminals=49 exhausted=true",
          [ 1000; 4947; 2842; 25; 3129 ] );
      ]

(* ---------- the domain-count default ---------- *)

let test_default_domains () =
  (* a malformed KSA_DOMAINS reads as unset, as documented *)
  let saved = Sys.getenv_opt "KSA_DOMAINS" in
  let recommended = Domain.recommended_domain_count () in
  Fun.protect
    ~finally:(fun () ->
      (* an empty value reads as unset too *)
      Unix.putenv "KSA_DOMAINS" (Option.value saved ~default:""))
    (fun () ->
      List.iter
        (fun (value, want) ->
          Unix.putenv "KSA_DOMAINS" value;
          Alcotest.(check int)
            (Printf.sprintf "KSA_DOMAINS=%S" value)
            want
            (Sim.Explorer.default_domains ()))
        [ ("0", recommended); ("abc", recommended); ("3", 3); (" 3 ", 3) ])

let suites =
  [
    ( "explore.idle",
      [
        Alcotest.test_case "crash cells unchanged" `Quick test_idle_crash_cells;
        Alcotest.test_case "n4 sym border witnesses" `Quick
          test_border_witnesses_n4;
        Alcotest.test_case "witness ranks undecided pid lists" `Quick
          test_witness_ranks_pid_lists;
        Alcotest.test_case "crash-free explore unchanged" `Quick
          test_idle_explore;
        Alcotest.test_case "crash-free cells pinned at one domain" `Quick
          test_free_cells_pinned;
      ] );
    ( "explore.parity",
      [
        Alcotest.test_case "n3 per-sender, 1/2/4/8 domains" `Quick
          test_parity_explore_n3;
        Alcotest.test_case "n4 empty-or-all" `Slow test_parity_explore_n4;
        Alcotest.test_case "terminal decision sets" `Quick
          test_parity_terminal_sets;
        Alcotest.test_case "violations are never lost" `Quick
          test_parity_violation;
        Alcotest.test_case "a requeued terminal is counted once" `Quick
          test_terminal_counted_once;
        Alcotest.test_case "crash explorer, budget 1" `Slow
          test_parity_crashes_n3;
        Alcotest.test_case "crash explorer, budget 0" `Quick
          test_parity_crashes_budget0;
        Alcotest.test_case "crash explorer, initially dead" `Quick
          test_parity_crashes_initially_dead;
        Alcotest.test_case "reachable decision values" `Quick
          test_parity_reachable_values;
      ] );
    ( "explore.truncation",
      [
        Alcotest.test_case "crash explorer is indeterminate" `Quick
          test_truncated_crashes_indeterminate;
        Alcotest.test_case "zero budget admits nothing" `Quick
          test_degenerate_budget_parity;
        Alcotest.test_case "seq/par clamp parity" `Quick
          test_truncated_explore_parity;
        Alcotest.test_case "exact budget completes" `Quick
          test_exact_budget_is_not_truncation;
      ] );
    ( "explore.mask",
      [ Alcotest.test_case "edge cases" `Quick test_mask_edges ] );
    ( "explore.domains",
      [
        Alcotest.test_case "malformed KSA_DOMAINS reads as unset" `Quick
          test_default_domains;
      ] );
    Test_util.qsuite "explore.mask.properties"
      [
        prop_popcount_matches_naive;
        prop_mask_add_mem;
        prop_mask_to_list_sound;
        prop_mask_compare_lists;
      ];
    ( "explore.keys",
      [
        Alcotest.test_case "send interleaving collides" `Quick
          test_key_ignores_send_interleaving;
        Alcotest.test_case "distinct configs separate" `Quick
          test_key_separates_distinct_configs;
        Alcotest.test_case "crash mask discriminates" `Quick
          test_key_extra_discriminates;
        Alcotest.test_case "recorded and exploration keys agree" `Quick
          test_key_exploration_agnostic;
      ] );
    ( "explore.row",
      [
        Alcotest.test_case "a 10,000-node chain" `Quick test_row_chain;
        Alcotest.test_case "budget above max_nodes is not explorable" `Quick
          test_row_budget_bound;
      ] );
    Test_util.qsuite "explore.row.properties"
      [ prop_row_classify_matches_reference; prop_row_round_trip ];
  ]
