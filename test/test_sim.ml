module Sim = Ksa_sim
module Rng = Ksa_prim.Rng
module FP = Sim.Failure_pattern
module Adv = Sim.Adversary
module E = Test_util.Echo_engine

let distinct = Sim.Value.distinct_inputs

(* ---------- Failure patterns ---------- *)

let test_pattern_none () =
  let p = FP.none ~n:4 in
  Alcotest.(check (list int)) "all correct" [ 0; 1; 2; 3 ] (FP.correct p);
  Alcotest.(check (list int)) "none faulty" [] (FP.faulty p)

let test_pattern_initial_dead () =
  let p = FP.initial_dead ~n:4 ~dead:[ 1; 3 ] in
  Alcotest.(check (list int)) "faulty" [ 1; 3 ] (FP.faulty p);
  Alcotest.(check (list int)) "F(0)" [ 1; 3 ]
    (List.filter (fun q -> FP.is_crashed p q ~time:0) [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "crashed now" true (FP.is_crashed p 1 ~time:0)

let test_pattern_crash_times () =
  let p = FP.of_crash_times ~n:3 [ (2, 5) ] in
  Alcotest.(check bool) "not crashed at 4" false (FP.is_crashed p 2 ~time:4);
  Alcotest.(check bool) "crashed at 5" true (FP.is_crashed p 2 ~time:5);
  Alcotest.(check (option int)) "crash time" (Some 5) (FP.crash_time p 2);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Failure_pattern: duplicate pid") (fun () ->
      ignore (FP.of_crash_times ~n:3 [ (1, 2); (1, 3) ]))

let test_pattern_restrict () =
  let p = FP.restrict_to (FP.none ~n:5) [ 1; 2 ] in
  Alcotest.(check (list int)) "outside dead" [ 0; 3; 4 ] (FP.faulty p);
  Alcotest.(check (list int)) "inside correct" [ 1; 2 ] (FP.correct p)

let test_pattern_merge () =
  let fa = FP.of_crash_times ~n:4 [ (0, 3) ] in
  let fb = FP.of_crash_times ~n:4 [ (1, 7); (0, 9) ] in
  let m = FP.merge ~inside:[ 0 ] fa fb in
  Alcotest.(check (option int)) "inside from fa" (Some 3) (FP.crash_time m 0);
  Alcotest.(check (option int)) "outside from fb" (Some 7) (FP.crash_time m 1);
  Alcotest.(check (option int)) "correct elsewhere" None (FP.crash_time m 2)

(* ---------- Engine semantics ---------- *)

let test_initial_dead_never_step () =
  let pattern = FP.initial_dead ~n:3 ~dead:[ 0 ] in
  let run =
    E.run ~n:3 ~inputs:(distinct 3) ~pattern (Adv.round_robin ())
  in
  Alcotest.(check bool) "p0 took no step" true
    (Sim.Run.steps_of run 0 = []);
  Alcotest.(check bool) "all correct decided" true (Sim.Run.all_correct_decided run)

let test_invalid_step_of_crashed () =
  let pattern = FP.initial_dead ~n:2 ~dead:[ 0 ] in
  let c = E.init ~n:2 ~inputs:(distinct 2) () in
  Alcotest.(check bool) "raises" true
    (match E.apply ~pattern c (Adv.Step { pid = 0; deliver = [] }) with
    | exception E.Invalid_action _ -> true
    | _ -> false)

let test_invalid_delivery () =
  let pattern = FP.none ~n:2 in
  let c = E.init ~n:2 ~inputs:(distinct 2) () in
  Alcotest.(check bool) "unknown message id" true
    (match E.apply ~pattern c (Adv.Step { pid = 0; deliver = [ 42 ] }) with
    | exception E.Invalid_action _ -> true
    | _ -> false)

let test_wrong_addressee () =
  let pattern = FP.none ~n:3 in
  let c = E.init ~n:3 ~inputs:(distinct 3) () in
  (* p0 steps and broadcasts pings: ids 0 (to p1), 1 (to p2) *)
  let c =
    Option.get (E.apply ~pattern c (Adv.Step { pid = 0; deliver = [] }))
  in
  Alcotest.(check bool) "deliver p2's message to p1 fails" true
    (match E.apply ~pattern c (Adv.Step { pid = 1; deliver = [ 1 ] }) with
    | exception E.Invalid_action _ -> true
    | _ -> false)

let test_drop_requires_crashed_sender () =
  let pattern = FP.none ~n:2 in
  let c = E.init ~n:2 ~inputs:(distinct 2) () in
  let c = Option.get (E.apply ~pattern c (Adv.Step { pid = 0; deliver = [] })) in
  Alcotest.(check bool) "drop from live sender fails" true
    (match E.apply ~pattern c (Adv.Drop [ 0 ]) with
    | exception E.Invalid_action _ -> true
    | _ -> false)

let test_drop_from_crashed_sender () =
  let pattern = FP.of_crash_times ~n:2 [ (0, 1) ] in
  let c = E.init ~n:2 ~inputs:(distinct 2) () in
  (* p0's single allowed step at time 1 broadcasts its ping *)
  let c = Option.get (E.apply ~pattern c (Adv.Step { pid = 0; deliver = [] })) in
  Alcotest.(check int) "one pending" 1 (List.length (E.pending c));
  let c = Option.get (E.apply ~pattern c (Adv.Drop [ 0 ])) in
  Alcotest.(check int) "dropped" 0 (List.length (E.pending c))

let test_write_once_decision () =
  (* a deliberately buggy algorithm that decides twice differently *)
  let module Bad = struct
    type state = int
    type message = unit

    let name = "bad"
    let uses_fd = false
    let init ~n:_ ~me:_ ~input:_ = 0

    let step st ~received:_ ~fd:_ = (st + 1, [], Some st)
    (* decides 0, then 1, then 2... *)

    let canon (st : state) = st
    let canon_message (m : message) = m
    let forge_pool ~n:_ ~values:_ = []
    let pp_state ppf st = Format.pp_print_int ppf st
    let pp_message _ () = ()
  end in
  let module Eb = Sim.Engine.Make (Bad) in
  let pattern = FP.none ~n:1 in
  let c = Eb.init ~n:1 ~inputs:[| 0 |] () in
  let c = Option.get (Eb.apply ~pattern c (Adv.Step { pid = 0; deliver = [] })) in
  Alcotest.(check bool) "second different decision raises" true
    (match Eb.apply ~pattern c (Adv.Step { pid = 0; deliver = [] }) with
    | exception Eb.Double_decision 0 -> true
    | _ -> false)

let test_event_log_chronological () =
  let pattern = FP.none ~n:2 in
  let run = E.run ~n:2 ~inputs:(distinct 2) ~pattern (Adv.round_robin ()) in
  let times = List.map (fun (ev : Sim.Event.t) -> ev.time) run.Sim.Run.events in
  Alcotest.(check (list int)) "times 1..k" (List.init (List.length times) (fun i -> i + 1)) times

let test_fd_required () =
  let module NeedsFd = struct
    type state = unit
    type message = unit

    let name = "needs-fd"
    let uses_fd = true
    let init ~n:_ ~me:_ ~input:_ = ()
    let step () ~received:_ ~fd:_ = ((), [], Some 0)
    let canon () = ()
    let canon_message () = ()
    let forge_pool ~n:_ ~values:_ = []
    let pp_state _ () = ()
    let pp_message _ () = ()
  end in
  let module En = Sim.Engine.Make (NeedsFd) in
  let pattern = FP.none ~n:1 in
  let c = En.init ~n:1 ~inputs:[| 0 |] () in
  Alcotest.(check bool) "missing oracle raises" true
    (match En.apply ~pattern c (Adv.Step { pid = 0; deliver = [] }) with
    | exception En.Invalid_action _ -> true
    | _ -> false)

(* ---------- Run analyses ---------- *)

let test_receives_nothing_from_until () =
  let pattern = FP.initial_dead ~n:3 ~dead:[ 2 ] in
  let run = E.run ~n:3 ~inputs:(distinct 3) ~pattern (Adv.round_robin ()) in
  Alcotest.(check bool) "nothing from the dead" true
    (Sim.Run.receives_nothing_from_until run 0 ~from:[ 2 ] ~until:max_int)

(* ---------- Adversaries ---------- *)

let test_partition_withholds () =
  let pattern = FP.none ~n:4 in
  let adv = Adv.partition ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] () in
  let run = E.run ~n:4 ~inputs:(distinct 4) ~pattern adv in
  Alcotest.(check bool) "all decided" true (Sim.Run.all_correct_decided run);
  (* within the prefix up to each side's decisions, no cross messages *)
  let t01 = Option.get (Sim.Run.last_decision_time run [ 0; 1 ]) in
  let t23 = Option.get (Sim.Run.last_decision_time run [ 2; 3 ]) in
  List.iter
    (fun p ->
      Alcotest.(check bool) "left hears only left" true
        (Sim.Run.receives_nothing_from_until run p ~from:[ 2; 3 ] ~until:t01))
    [ 0; 1 ];
  List.iter
    (fun p ->
      Alcotest.(check bool) "right hears only right" true
        (Sim.Run.receives_nothing_from_until run p ~from:[ 0; 1 ] ~until:t23))
    [ 2; 3 ]

let test_sequential_solo_order () =
  let pattern = FP.none ~n:4 in
  let adv = Adv.sequential_solo ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] in
  let run = E.run ~n:4 ~inputs:(distinct 4) ~pattern adv in
  Alcotest.(check bool) "all decided" true (Sim.Run.all_correct_decided run);
  let t01 = Option.get (Sim.Run.last_decision_time run [ 0; 1 ]) in
  let t2 = Option.get (Sim.Run.last_decision_time run [ 2 ]) in
  Alcotest.(check bool) "group 1 first" true (t01 < t2)

let test_fair_terminates_many_seeds () =
  for seed = 1 to 30 do
    let rng = Rng.create ~seed in
    let pattern = FP.none ~n:5 in
    let run = E.run ~n:5 ~inputs:(distinct 5) ~pattern (Adv.fair ~rng) in
    if not (Sim.Run.all_correct_decided run) then
      Alcotest.failf "seed %d: %a" seed Sim.Run.pp_summary run
  done

let test_fair_lossy_terminates () =
  for seed = 1 to 10 do
    let rng = Rng.create ~seed in
    let pattern = FP.none ~n:4 in
    let run =
      E.run ~n:4 ~inputs:(distinct 4) ~pattern (Adv.fair_lossy ~rng ~p_defer:0.5)
    in
    if not (Sim.Run.all_correct_decided run) then
      Alcotest.failf "seed %d not decided" seed
  done

(* ---------- Determinism / replay ---------- *)

let test_runs_deterministic () =
  let go seed =
    let rng = Rng.create ~seed in
    E.run ~n:4 ~inputs:(distinct 4) ~pattern:(FP.none ~n:4) (Adv.fair ~rng)
  in
  let r1 = go 5 and r2 = go 5 in
  Alcotest.(check int) "same length" (Sim.Run.step_count r1) (Sim.Run.step_count r2);
  Alcotest.(check bool) "same events" true (r1.Sim.Run.events = r2.Sim.Run.events)

let test_replay_reproduces_run () =
  let rng = Rng.create ~seed:9 in
  let pattern = FP.none ~n:4 in
  let orig = E.run ~n:4 ~inputs:(distinct 4) ~pattern (Adv.fair ~rng) in
  let stream = Sim.Replay.project ~keep:(fun _ -> true) orig in
  let replayed =
    E.run ~n:4 ~inputs:(distinct 4) ~pattern (Sim.Replay.sequential [ stream ])
  in
  Alcotest.(check bool) "same decisions" true
    (orig.Sim.Run.decisions = replayed.Sim.Run.decisions);
  Alcotest.(check bool) "same state ids" true
    (List.map (fun (e : Sim.Event.t) -> (e.pid, e.state_id)) orig.Sim.Run.events
    = List.map (fun (e : Sim.Event.t) -> (e.pid, e.state_id)) replayed.Sim.Run.events);
  Alcotest.(check bool) "same traces" true
    (Sim.Trace.equal orig.Sim.Run.trace replayed.Sim.Run.trace)

(* ---------- Explorer ---------- *)

let test_explorer_trivial_safe () =
  let module Ex = Sim.Explorer.Make (Ksa_algo.Trivial.A) in
  match
    Ex.explore ~n:3 ~inputs:(distinct 3) ~pattern:(FP.none ~n:3)
      ~check:(fun _ -> None)
      ()
  with
  | Sim.Explorer.Safe stats ->
      Alcotest.(check bool) "complete" false stats.Sim.Explorer.budget_exhausted;
      Alcotest.(check bool) "some terminals" true (stats.Sim.Explorer.terminal_runs > 0)
  | Sim.Explorer.Violation _ -> Alcotest.fail "trivial cannot violate"

let test_explorer_finds_violation () =
  let module Ex = Sim.Explorer.Make (Ksa_algo.Trivial.A) in
  (* claim "consensus" about the trivial algorithm: must be refuted *)
  match
    Ex.explore ~n:2 ~inputs:(distinct 2) ~pattern:(FP.none ~n:2)
      ~check:(fun decisions ->
        let values = List.sort_uniq compare (List.map (fun (_, v, _) -> v) decisions) in
        if List.length values > 1 then Some "two values decided" else None)
      ()
  with
  | Sim.Explorer.Safe _ -> Alcotest.fail "should find a violation"
  | Sim.Explorer.Violation v ->
      Alcotest.(check string) "reason" "two values decided" v.reason

let test_explorer_rejects_fd_algorithms () =
  let module Ex = Sim.Explorer.Make (Ksa_algo.Synod.A) in
  Alcotest.(check bool) "not explorable" true
    (match
       Ex.explore ~n:2 ~inputs:(distinct 2) ~pattern:(FP.none ~n:2)
         ~check:(fun _ -> None)
         ()
     with
    | exception
        Sim.Explorer.Not_explorable
          "Explorer: algorithms with failure detectors are unsupported" ->
        true
    | _ -> false)

let test_explorer_rejects_late_crashes () =
  let module Ex = Sim.Explorer.Make (Ksa_algo.Trivial.A) in
  Alcotest.(check bool) "not explorable" true
    (match
       Ex.explore ~n:2 ~inputs:(distinct 2)
         ~pattern:(FP.of_crash_times ~n:2 [ (0, 3) ])
         ~check:(fun _ -> None)
         ()
     with
    | exception
        Sim.Explorer.Not_explorable "Explorer: only initial crashes are supported"
      ->
        true
    | _ -> false)

(* ---------- crash-adversarial exploration ---------- *)

let test_crash_explorer_flp_gap () =
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = 2
  end) in
  let module Ex = Sim.Explorer.Make (K) in
  (* budget 0: nothing can trap the protocol *)
  (match
     Ex.explore_with_crashes ~n:3 ~inputs:(distinct 3) ~crash_budget:0
       ~check:(fun _ -> None)
       ()
   with
  | Sim.Explorer.All_paths_decide stats ->
      Alcotest.(check bool) "complete" false stats.Sim.Explorer.budget_exhausted
  | Sim.Explorer.Stuck _ -> Alcotest.fail "no crash, no trap"
  | Sim.Explorer.Indeterminate _ -> Alcotest.fail "unexpected truncation"
  | Sim.Explorer.Safety_violation { reason; _ } -> Alcotest.fail reason);
  (* budget 1: the FLP trap must be found *)
  match
    Ex.explore_with_crashes ~n:3 ~inputs:(distinct 3) ~crash_budget:1
      ~check:(fun _ -> None)
      ()
  with
  | Sim.Explorer.Stuck { crashed; undecided_correct; _ } ->
      Alcotest.(check int) "one crash suffices" 1 (List.length crashed);
      Alcotest.(check bool) "someone is trapped" true (undecided_correct <> [])
  | Sim.Explorer.All_paths_decide _ -> Alcotest.fail "FLP trap missed"
  | Sim.Explorer.Indeterminate _ -> Alcotest.fail "unexpected truncation"
  | Sim.Explorer.Safety_violation { reason; _ } -> Alcotest.fail reason

let test_crash_explorer_trivial_untrappable () =
  let module Ex = Sim.Explorer.Make (Ksa_algo.Trivial.A) in
  match
    Ex.explore_with_crashes ~n:3 ~inputs:(distinct 3) ~crash_budget:2
      ~check:(fun _ -> None)
      ()
  with
  | Sim.Explorer.All_paths_decide _ -> ()
  | Sim.Explorer.Stuck _ -> Alcotest.fail "wait-free algorithms cannot be trapped"
  | Sim.Explorer.Indeterminate _ -> Alcotest.fail "unexpected truncation"
  | Sim.Explorer.Safety_violation { reason; _ } -> Alcotest.fail reason

let test_crash_explorer_safety_violation () =
  (* claiming consensus about the trivial algorithm: the crash
     explorer reports the safety violation, not a stuck state *)
  let module Ex = Sim.Explorer.Make (Ksa_algo.Trivial.A) in
  match
    Ex.explore_with_crashes ~n:2 ~inputs:(distinct 2) ~crash_budget:1
      ~check:(fun decisions ->
        let values =
          List.sort_uniq compare (List.map (fun (_, v, _) -> v) decisions)
        in
        if List.length values > 1 then Some "two values" else None)
      ()
  with
  | Sim.Explorer.Safety_violation { reason; _ } ->
      Alcotest.(check string) "reason" "two values" reason
  | Sim.Explorer.All_paths_decide _ | Sim.Explorer.Stuck _
  | Sim.Explorer.Indeterminate _ ->
      Alcotest.fail "violation expected"

let test_crash_explorer_valency () =
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = 2
  end) in
  let module Ex = Sim.Explorer.Make (K) in
  let vals =
    Ex.reachable_decision_values ~n:3 ~inputs:(distinct 3) ~crash_budget:1 ()
  in
  Alcotest.(check bool) "multivalent under 1 crash" true (List.length vals >= 2);
  let vals0 =
    Ex.reachable_decision_values ~n:3 ~inputs:[| 7; 7; 7 |] ~crash_budget:1 ()
  in
  Alcotest.(check (list int)) "univalent with equal inputs" [ 7 ] vals0

(* ---------- the pending index ----------

   The per-destination inboxes are the engine's only pending index;
   [pending] and [observe] merge them into sending (ascending id)
   order.  Each run below is driven one action at a time, and every
   configuration it passes through is checked. *)

module K2 = Ksa_algo.Kset_flp.Make (struct
  let l = 2
end)

module EK = Sim.Engine.Make (K2)

let check_pending_index ~pattern c =
  let pend = EK.pending c in
  let rec ascending = function
    | (a : K2.message Sim.Envelope.t) :: (b :: _ as rest) ->
        a.id < b.id && ascending rest
    | [ _ ] | [] -> true
  in
  if not (ascending pend) then failwith "pending not strictly id-ascending";
  let from_inboxes =
    List.concat_map
      (fun p ->
        let mine = EK.inbox c p in
        if List.sort compare mine <> mine then failwith "inbox out of order";
        List.map (fun (id, src) -> (id, src, p)) mine)
      (List.init (EK.n c) Fun.id)
  in
  if
    List.sort compare from_inboxes
    <> List.map
         (fun (e : K2.message Sim.Envelope.t) -> (e.id, e.src, e.dst))
         pend
  then failwith "pending differs from the union of the inboxes";
  if
    Adv.pending (EK.observe ~pattern c)
    <> List.map
         (fun (e : K2.message Sim.Envelope.t) ->
           { Adv.id = e.id; src = e.src; dst = e.dst; sent_at = e.sent_at })
         pend
  then failwith "observe's pending differs from pending"

type index_mode = Fair | Drops | Forges | Omits

let some_of rng = function
  | [] -> []
  | xs -> (
      match List.filter (fun _ -> Rng.bool rng) xs with
      | [] -> [ Rng.pick rng xs ]
      | some -> some)

(* One action of a random adversary of the given mode; [None] ends the
   run.  Omissions go through [EK.omit], the explorer's entry point
   for the mobile model; every other action through [EK.apply]. *)
let index_action mode rng ~pool ~pattern ~fair c =
  let obs = EK.observe ~pattern c in
  let step () =
    match Adv.alive obs with
    | [] -> None
    | alive ->
        let pid = Rng.pick rng alive in
        let deliver =
          List.filter (fun _ -> Rng.bool rng) (Adv.pending_for obs pid)
        in
        EK.apply ~pattern c (Adv.Step { pid; deliver })
  in
  match mode with
  | Fair -> EK.apply ~pattern c (fair.Adv.next obs)
  | Drops -> (
      match Adv.droppable obs with
      | _ :: _ as ids when Rng.int rng 3 = 0 ->
          EK.apply ~pattern c (Adv.Drop (some_of rng ids))
      | _ -> step ())
  | Forges -> (
      match Adv.forgeable obs with
      | _ :: _ as ms when pool > 0 && Rng.int rng 3 = 0 ->
          let id, pid = Rng.pick rng ms in
          let deliver =
            id :: List.filter (fun _ -> Rng.bool rng) (Adv.pending_for obs pid)
          in
          EK.apply ~pattern c
            (Adv.Forging_step
               { pid; deliver; forged = [ (id, Rng.int rng pool) ] })
      | _ -> step ())
  | Omits -> (
      match Adv.pending obs with
      | _ :: _ as ms when Rng.int rng 4 = 0 ->
          let ids = List.map (fun (m : Adv.pending) -> m.id) ms in
          Some (EK.omit c (some_of rng ids))
      | _ -> step ())

let prop_pending_index =
  QCheck.Test.make
    ~name:"pending = merged inboxes = observed, after every action"
    ~count:120
    QCheck.(triple int (int_range 3 4) (int_range 0 3))
    (fun (seed, n, m) ->
      let mode = [| Fair; Drops; Forges; Omits |].(m) in
      let rng = Rng.create ~seed in
      let pattern =
        match mode with
        | Fair | Omits -> FP.none ~n
        | Drops | Forges ->
            FP.of_crash_times ~n
              (List.map
                 (fun p -> (p, Rng.int rng 12))
                 (Rng.sample rng (1 + Rng.int rng 2) (List.init n Fun.id)))
      in
      let inputs = distinct n in
      let pool = List.length (EK.forge_pool ~n ~inputs) in
      let fair = Adv.fair ~rng in
      let rec go c k =
        match check_pending_index ~pattern c with
        | exception Failure msg ->
            QCheck.Test.fail_reportf "after %d actions: %s" k msg
        | () -> (
            k >= 80
            ||
            match index_action mode rng ~pool ~pattern ~fair c with
            | Some c' -> go c' (k + 1)
            | None -> true)
      in
      go (EK.init ~n ~inputs ()) 0)

(* ---------- the decisions list ---------- *)

(* The configurations of one random run of [mode] (as in
   [prop_pending_index]), first to last: a pure function of its
   arguments, so two calls give structurally equal runs whose decided
   rows are distinct arrays. *)
let decision_walk ~seed ~n ~mode ~record =
  let rng = Rng.create ~seed in
  let pattern =
    match mode with
    | Fair | Omits -> FP.none ~n
    | Drops | Forges ->
        FP.of_crash_times ~n
          (List.map
             (fun p -> (p, Rng.int rng 12))
             (Rng.sample rng (1 + Rng.int rng 2) (List.init n Fun.id)))
  in
  let inputs = distinct n in
  let pool = List.length (EK.forge_pool ~n ~inputs) in
  let fair = Adv.fair ~rng in
  let rec go c k acc =
    let acc = c :: acc in
    if k >= 60 then List.rev acc
    else
      match index_action mode rng ~pool ~pattern ~fair c with
      | Some c' -> go c' (k + 1) acc
      | None -> List.rev acc
  in
  go (EK.init ~record ~n ~inputs ()) 0 []

(* [None] when [EK.decisions c] is right at [c], cold and warm, and
   [twin] (a configuration of an equal run) is listed apart from it;
   [other] is an unrelated configuration. *)
let decisions_fault c ~twin ~other =
  let listed = EK.decisions c in
  let rec ascending = function
    | (p, _, _) :: ((q, _, _) :: _ as rest) -> p < q && ascending rest
    | [ _ ] | [] -> true
  in
  let agrees p =
    EK.decision_of c p
    = Option.map (fun (_, v, _) -> v)
        (List.find_opt (fun (q, _, _) -> q = p) listed)
  in
  ignore (EK.decisions other);
  let cold = EK.decisions c in
  let warm = EK.decisions c in
  let twin_listed = EK.decisions twin in
  if not (ascending listed) then Some "not ascending by pid"
  else if not (List.for_all agrees (List.init (EK.n c) Fun.id)) then
    Some "disagrees with decision_of"
  else if cold <> listed || warm <> listed then
    Some "differs between a cold and a warm call"
  else if warm != cold then Some "a warm call built a new list"
  else if twin_listed <> listed then Some "an equal run lists otherwise"
  else if listed <> [] && twin_listed == warm then
    Some "an equal row of another run served the same list"
  else if
    Test_util.words_per_loop 100 (fun () -> ignore (EK.decisions c)) <> 0.
  then Some "a repeat call allocates"
  else None

(* Every configuration of two equal random runs, each checked against
   its twin of the other run and against a configuration of its own
   run half a run away.  The number of configurations that had
   decided something. *)
let check_decision_walk ~seed ~n ~mode ~record =
  let a = Array.of_list (decision_walk ~seed ~n ~mode ~record) in
  let b = Array.of_list (decision_walk ~seed ~n ~mode ~record) in
  let len = Array.length a in
  let decided = ref 0 in
  Array.iteri
    (fun i c ->
      match decisions_fault c ~twin:b.(i) ~other:a.((i + (len / 2)) mod len) with
      | Some fault -> failwith (Printf.sprintf "config %d of %d: %s" i len fault)
      | None -> if EK.decisions c <> [] then incr decided)
    a;
  !decided

let prop_decisions_memo =
  QCheck.Test.make
    ~name:"decisions: sorted, = decision_of, equal cold and warm, 0 words"
    ~count:120
    QCheck.(set_shrink Shrink.nil (quad int (int_range 3 4) (int_range 0 3) bool))
    (fun (seed, n, m, record) ->
      let mode = [| Fair; Drops; Forges; Omits |].(m) in
      match check_decision_walk ~seed ~n ~mode ~record with
      | _ -> true
      | exception Failure msg -> QCheck.Test.fail_reportf "%s" msg)

(* The same checks on two domains at once, each on its own runs *)
let test_decisions_two_domains () =
  let walks first () =
    List.fold_left
      (fun acc seed ->
        acc
        + check_decision_walk ~seed ~n:(3 + (seed mod 2))
            ~mode:[| Fair; Drops; Forges; Omits |].(seed mod 4)
            ~record:(seed mod 3 = 0))
      0
      (List.init 40 (fun i -> first + i))
  in
  let other = Domain.spawn (walks 1000) in
  let here = walks 0 () in
  let there = Domain.join other in
  Alcotest.(check bool)
    (Printf.sprintf "decided configurations seen: %d and %d" here there)
    true
    (here > 0 && there > 0)

(* An observation is one small block sharing the configuration's
   rows; the accessors allocate only the id lists they return. *)
let test_observe_allocation () =
  let n = 4 in
  let pattern = FP.none ~n in
  let c =
    List.fold_left
      (fun c pid ->
        Option.get (EK.apply ~pattern c (Adv.Step { pid; deliver = [] })))
      (EK.init ~n ~inputs:(distinct n) ())
      [ 0; 1; 2; 3 ]
  in
  let words f = Test_util.words_per_loop 1000 f /. 1000. in
  let w = words (fun () -> ignore (Sys.opaque_identity (EK.observe ~pattern c))) in
  Alcotest.(check bool) (Printf.sprintf "observe: %g words <= 8" w) true
    (w > 0. && w <= 8.);
  let obs = EK.observe ~pattern c in
  for p = 0 to n - 1 do
    let ids = Adv.pending_for obs p in
    Alcotest.(check bool) "an inbox to read" true (ids <> []);
    Alcotest.(check (float 0.))
      (Printf.sprintf "pending_for p%d" p)
      (float (3 * List.length ids))
      (words (fun () -> ignore (Sys.opaque_identity (Adv.pending_for obs p))));
    Alcotest.(check (float 0.)) "is_pending_for" 0.
      (words (fun () -> ignore (Adv.is_pending_for obs p (List.hd ids) : bool)))
  done;
  List.iter
    (fun (what, f) -> Alcotest.(check (float 0.)) what 0. (words f))
    [
      ("count_alive", fun () -> ignore (Adv.count_alive obs : int));
      ( "nth_alive ~undecided",
        fun () -> ignore (Adv.nth_alive ~undecided:true obs 2 : int) );
      ("has_droppable", fun () -> ignore (Adv.has_droppable obs : bool));
      ("all_correct_decided", fun () -> ignore (Adv.all_correct_decided obs : bool));
    ]

(* [Step]'s two refusals of a delivery, word for word *)
let test_step_delivery_messages () =
  let pattern = FP.none ~n:3 in
  let c = E.init ~n:3 ~inputs:(distinct 3) () in
  (* p0 broadcasts pings: ids 0 (to p1) and 1 (to p2) *)
  let c =
    Option.get (E.apply ~pattern c (Adv.Step { pid = 0; deliver = [] }))
  in
  Alcotest.check_raises "in another inbox"
    (E.Invalid_action "message #1 not addressed to p1") (fun () ->
      ignore (E.apply ~pattern c (Adv.Step { pid = 1; deliver = [ 0; 1 ] })));
  Alcotest.check_raises "in no inbox"
    (E.Invalid_action "message #42 not pending") (fun () ->
      ignore (E.apply ~pattern c (Adv.Step { pid = 1; deliver = [ 42 ] })))

(* ---------- adversary helpers against their list definitions ---------- *)

let random_obs rng =
  let n = 1 + Rng.int rng 6 in
  let pids = List.init n Fun.id in
  let pattern =
    FP.of_crash_times ~n
      (List.filter_map
         (fun p -> if Rng.bool rng then Some (p, Rng.int rng 10) else None)
         pids)
  in
  let time = Rng.int rng 10 in
  let decided =
    List.filter_map
      (fun p -> if Rng.bool rng then Some (p, Rng.int rng 3) else None)
      pids
  in
  let next = ref 0 in
  let pending =
    List.init (Rng.int rng 12) (fun _ ->
        next := !next + 1 + Rng.int rng 3;
        {
          Adv.id = !next;
          src = Rng.int rng n;
          dst = Rng.int rng n;
          sent_at = Rng.int rng (time + 1);
        })
  in
  ( Adv.obs_of_pending ~time ~n ~pattern ~decided pending,
    (time, n, pattern, pending, decided) )

let prop_adversary_helpers =
  QCheck.Test.make ~name:"adversary helpers match their list definitions"
    ~count:500 QCheck.int (fun seed ->
      let rng = Rng.create ~seed in
      let obs, (time, n, pattern, pending, decided_l) = random_obs rng in
      let pids = List.init n Fun.id in
      let decided p = List.mem_assoc p decided_l in
      let ids_where f =
        List.filter_map
          (fun (m : Adv.pending) -> if f m then Some m.id else None)
          pending
      in
      let allow_bits = Rng.int rng (1 lsl 30) in
      let allow src dst =
        allow_bits land (1 lsl (((src * n) + dst) mod 30)) <> 0
      in
      let crashed_sender (m : Adv.pending) =
        FP.is_crashed pattern m.src ~time
      in
      let alive =
        List.filter
          (fun p ->
            match FP.crash_time pattern p with
            | None -> true
            | Some ct -> time + 1 <= ct)
          pids
      in
      let check name show got want =
        if got <> want then
          QCheck.Test.fail_reportf "%s: got %s, want %s" name (show got)
            (show want)
      in
      let ints l = String.concat "," (List.map string_of_int l) in
      let pairs l =
        String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) l)
      in
      check "alive" ints (Adv.alive obs) alive;
      check "all_correct_decided" string_of_bool
        (Adv.all_correct_decided obs)
        (List.for_all decided (FP.correct pattern));
      List.iter
        (fun p ->
          check "pending_for" ints (Adv.pending_for obs p)
            (ids_where (fun m -> m.dst = p));
          check "pending_for ~allow" ints
            (Adv.pending_for ~allow obs p)
            (ids_where (fun m -> m.dst = p && allow m.src m.dst)))
        pids;
      check "droppable" ints (Adv.droppable obs) (ids_where crashed_sender);
      check "forgeable" pairs (Adv.forgeable obs)
        (List.filter_map
           (fun (m : Adv.pending) ->
             if crashed_sender m && List.mem m.dst alive then
               Some (m.id, m.dst)
             else None)
           pending);
      (* the view's own accessors *)
      check "time" string_of_int (Adv.time obs) time;
      check "n" string_of_int (Adv.n obs) n;
      let ms l =
        String.concat ","
          (List.map
             (fun (m : Adv.pending) ->
               Printf.sprintf "%d:%d>%d@%d" m.id m.src m.dst m.sent_at)
             l)
      in
      check "pending" ms (Adv.pending obs) pending;
      let per_channel =
        Adv.fold_pending
          (fun acc ~id ~src ~dst ~sent_at -> { Adv.id; src; dst; sent_at } :: acc)
          obs []
        |> List.rev
      in
      let channel (m : Adv.pending) = (m.src, m.dst) in
      check "fold_pending: every message once" ms
        (List.sort (fun (a : Adv.pending) b -> compare a.id b.id) per_channel)
        pending;
      List.iter
        (fun (m : Adv.pending) ->
          check "fold_pending: sending order per channel" ints
            (List.filter_map
               (fun (x : Adv.pending) ->
                 if channel x = channel m then Some x.id else None)
               per_channel)
            (ids_where (fun x -> channel x = channel m)))
        pending;
      let opt = function None -> "-" | Some v -> string_of_int v in
      List.iter
        (fun p ->
          check "decision" opt (Adv.decision obs p) (List.assoc_opt p decided_l);
          check "has_decided" string_of_bool (Adv.has_decided obs p) (decided p))
        pids;
      List.iter
        (fun p ->
          check "is_alive" string_of_bool (Adv.is_alive obs p) (List.mem p alive))
        (-1 :: n :: pids);
      List.iter
        (fun (undecided, want) ->
          check "count_alive" string_of_int
            (Adv.count_alive ~undecided obs)
            (List.length want);
          List.iteri
            (fun r p ->
              check "nth_alive" string_of_int (Adv.nth_alive ~undecided obs r) p)
            want)
        [ (false, alive); (true, List.filter (fun p -> not (decided p)) alive) ];
      let bits = Rng.int rng (1 lsl 30) in
      List.iter
        (fun p ->
          let mine = ids_where (fun m -> m.dst = p) in
          let rank = ref (-1) in
          check "pending_for_sampled" ints
            (Adv.pending_for_sampled obs p (fun () ->
                 incr rank;
                 bits land (1 lsl !rank) <> 0))
            (List.filteri (fun r _ -> bits land (1 lsl r) <> 0) mine);
          check "pending_for_sent" ints
            (Adv.pending_for_sent obs p ~keep:(fun src sent_at ->
                 allow src sent_at))
            (ids_where (fun m -> m.dst = p && allow m.src m.sent_at));
          List.iter
            (fun id ->
              check "is_pending_for" string_of_bool
                (Adv.is_pending_for obs p id)
                (List.mem id mine))
            (List.init (time + 40) Fun.id))
        pids;
      check "has_droppable" string_of_bool (Adv.has_droppable obs)
        (ids_where crashed_sender <> []);
      true)

(* ---------- Kset_spec ---------- *)

let spec_run ?max_steps () =
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = 2
  end) in
  let module EK = Sim.Engine.Make (K) in
  EK.run ?max_steps ~n:4 ~inputs:(distinct 4) ~pattern:(FP.none ~n:4)
    (Adv.round_robin ())

let test_spec_checks () =
  let run = spec_run () in
  let none what got = Alcotest.(check (option string)) what None got in
  none "2-agreement" (Sim.Kset_spec.k_agreement ~k:2 run.Sim.Run.decisions);
  none "validity" (Sim.Kset_spec.validity ~inputs:run.inputs run.decisions);
  none "termination" (Sim.Kset_spec.termination run);
  none "all" (Sim.Kset_spec.check ~k:2 run)

let test_spec_detects_violation () =
  let run = spec_run () in
  let d = List.length (List.sort_uniq compare (List.map (fun (_, v, _) -> v) run.decisions)) in
  Alcotest.(check (option string)) "0-agreement"
    (Some (Printf.sprintf "%d distinct decisions exceed k=0" d))
    (Sim.Kset_spec.k_agreement ~k:0 run.decisions);
  let v = match run.decisions with (_, v, _) :: _ -> v | [] -> Alcotest.fail "no decision" in
  Alcotest.(check (option string)) "validity"
    (Some (Printf.sprintf "decided value %d was never proposed" v))
    (Sim.Kset_spec.validity ~inputs:[| 99 |] run.decisions);
  Alcotest.(check (option string)) "termination"
    (Some "correct process undecided after 1 steps")
    (Sim.Kset_spec.termination (spec_run ~max_steps:1 ()))

let prop_k_agreement_counts_values =
  QCheck.Test.make ~name:"k_agreement holds iff at most k distinct values" ~count:500
    QCheck.(pair (int_range 0 6) (small_list (triple (int_range 0 5) (int_range 0 5) small_nat)))
    (fun (k, ds) ->
      let module S = Set.Make (Int) in
      let distinct = S.cardinal (S.of_list (List.map (fun (_, v, _) -> v) ds)) in
      (Sim.Kset_spec.k_agreement ~k ds = None) = (distinct <= k))

let test_spec_allocation () =
  let run = spec_run () in
  let words f = Test_util.words_per_loop 1000 (fun () -> ignore (Sys.opaque_identity (f ()))) in
  Alcotest.(check (float 0.)) "k-agreement words" 0.
    (words (fun () -> Sim.Kset_spec.k_agreement ~k:4 run.decisions));
  Alcotest.(check (float 0.)) "validity words" 0.
    (words (fun () -> Sim.Kset_spec.validity ~inputs:run.inputs run.decisions))

module FK2 = Sim.Fuzz.Make (K2)

(* An unrecorded run keeps no event or forge log, and carries the
   decisions and status the checks read exactly: Byzantine fuzz
   adversaries, some of whose recorded runs forge *)
let test_unrecorded_run () =
  let n = 3 in
  let cfg =
    {
      (Sim.Fuzz.default_config ~k:1 ~n ()) with
      Sim.Fuzz.model = Sim.Fault_model.Byzantine 1;
    }
  in
  let pattern = FP.of_crash_times ~n [ (0, 4) ] in
  let forged = ref 0 in
  for seed = 1 to 30 do
    let run record =
      EK.run ~record ~max_steps:cfg.max_steps ~n ~inputs:cfg.inputs ~pattern
        (FK2.adversary cfg (Rng.create ~seed))
    in
    let r = run true and u = run false in
    if r.Sim.Run.forges <> [] then incr forged;
    Alcotest.(check bool) "no events" true (u.Sim.Run.events = []);
    Alcotest.(check bool) "no forges" true (u.Sim.Run.forges = []);
    Alcotest.(check int) "step count" 0 (Sim.Run.step_count u);
    Alcotest.(check bool) "same decisions" true
      (u.Sim.Run.decisions = r.Sim.Run.decisions);
    Alcotest.(check bool) "same status" true (u.Sim.Run.status = r.Sim.Run.status)
  done;
  Alcotest.(check bool) "some recorded run forges" true (!forged > 0)

(* A blind campaign that nothing observes runs its trials unrecorded:
   with a warm transition memo it allocates at least 15% fewer words
   than the same campaign with an [on_trial] observer, which keeps
   every trial recorded (about 2,300 against 3,100 words a trial) *)
let test_blind_campaign_allocation () =
  let cfg =
    { (Sim.Fuzz.default_config ~k:2 ~n:4 ()) with Sim.Fuzz.max_crashes = 2 }
  in
  let words on_trial =
    let w0 = Gc.minor_words () in
    (match FK2.run ?on_trial cfg ~seed:5 ~trials:500 with
    | Sim.Fuzz.Clean { trials } -> Alcotest.(check int) "clean" 500 trials
    | _ -> Alcotest.fail "Theorem 8: a k=2 campaign at L=2 is clean");
    Gc.minor_words () -. w0
  in
  ignore (words None);
  let blind = words None in
  let seen = words (Some (fun _ _ -> ())) in
  Alcotest.(check bool)
    (Printf.sprintf "blind %.0f <= 0.85 x observed %.0f words" blind seen)
    true
    (blind <= 0.85 *. seen)

let suites =
  [
    ( "sim.failure_pattern",
      [
        Alcotest.test_case "none" `Quick test_pattern_none;
        Alcotest.test_case "initial dead" `Quick test_pattern_initial_dead;
        Alcotest.test_case "crash times" `Quick test_pattern_crash_times;
        Alcotest.test_case "restrict" `Quick test_pattern_restrict;
        Alcotest.test_case "merge (Lemma 11.2)" `Quick test_pattern_merge;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "initially dead never step" `Quick test_initial_dead_never_step;
        Alcotest.test_case "crashed cannot step" `Quick test_invalid_step_of_crashed;
        Alcotest.test_case "invalid delivery" `Quick test_invalid_delivery;
        Alcotest.test_case "wrong addressee" `Quick test_wrong_addressee;
        Alcotest.test_case "drop needs crashed sender" `Quick test_drop_requires_crashed_sender;
        Alcotest.test_case "drop from crashed ok" `Quick test_drop_from_crashed_sender;
        Alcotest.test_case "write-once decision" `Quick test_write_once_decision;
        Alcotest.test_case "event log chronological" `Quick test_event_log_chronological;
        Alcotest.test_case "fd required" `Quick test_fd_required;
        Alcotest.test_case "delivery refusal messages" `Quick
          test_step_delivery_messages;
        QCheck_alcotest.to_alcotest prop_pending_index;
        Alcotest.test_case "observe and its accessors allocate" `Quick
          test_observe_allocation;
        QCheck_alcotest.to_alcotest prop_decisions_memo;
        Alcotest.test_case "decisions on two domains at once" `Quick
          test_decisions_two_domains;
      ] );
    ( "sim.run",
      [
        Alcotest.test_case "receives nothing from dead" `Quick test_receives_nothing_from_until;
      ] );
    ( "sim.kset_spec",
      [
        Alcotest.test_case "checks pass" `Quick test_spec_checks;
        Alcotest.test_case "detects violation" `Quick test_spec_detects_violation;
        QCheck_alcotest.to_alcotest prop_k_agreement_counts_values;
        Alcotest.test_case "holding list checks allocate nothing" `Quick
          test_spec_allocation;
        Alcotest.test_case "an unrecorded run carries what the checks read"
          `Quick test_unrecorded_run;
        Alcotest.test_case "blind trials record nothing: 15% fewer words"
          `Quick test_blind_campaign_allocation;
      ] );
    ( "sim.adversary",
      [
        Alcotest.test_case "partition withholds" `Quick test_partition_withholds;
        Alcotest.test_case "sequential solo order" `Quick test_sequential_solo_order;
        Alcotest.test_case "fair terminates (30 seeds)" `Quick test_fair_terminates_many_seeds;
        Alcotest.test_case "fair lossy terminates" `Quick test_fair_lossy_terminates;
        QCheck_alcotest.to_alcotest prop_adversary_helpers;
      ] );
    ( "sim.replay",
      [
        Alcotest.test_case "deterministic" `Quick test_runs_deterministic;
        Alcotest.test_case "replay reproduces" `Quick test_replay_reproduces_run;
      ] );
    ( "sim.explorer",
      [
        Alcotest.test_case "trivial safe" `Quick test_explorer_trivial_safe;
        Alcotest.test_case "finds violation" `Quick test_explorer_finds_violation;
        Alcotest.test_case "rejects fd algorithms" `Quick test_explorer_rejects_fd_algorithms;
        Alcotest.test_case "rejects late crashes" `Quick test_explorer_rejects_late_crashes;
        Alcotest.test_case "crash explorer: FLP gap" `Slow test_crash_explorer_flp_gap;
        Alcotest.test_case "crash explorer: wait-free untrappable" `Quick
          test_crash_explorer_trivial_untrappable;
        Alcotest.test_case "crash explorer: safety violation" `Quick
          test_crash_explorer_safety_violation;
        Alcotest.test_case "crash explorer: valency" `Slow test_crash_explorer_valency;
      ] );
  ]
