module Sim = Ksa_sim
module Fd = Ksa_fd
module Algo = Ksa_algo
module FP = Sim.Failure_pattern
module Adv = Sim.Adversary
module Rng = Ksa_prim.Rng
module Listx = Ksa_prim.Listx

let distinct = Sim.Value.distinct_inputs

(* ---------- Kset_flp parameters ---------- *)

let test_parameters () =
  Alcotest.(check int) "kset L" 3 (Algo.Kset_flp.kset_l ~n:5 ~f:2);
  Alcotest.(check int) "consensus L n=5" 3 (Algo.Kset_flp.consensus_l ~n:5);
  Alcotest.(check int) "consensus L n=4" 3 (Algo.Kset_flp.consensus_l ~n:4);
  Alcotest.(check int) "bound" 2 (Algo.Kset_flp.decisions_bound ~n:5 ~l:2);
  Alcotest.(check bool) "solvable 5,2,2" true (Algo.Kset_flp.solvable ~n:5 ~f:2 ~k:2);
  Alcotest.(check bool) "border 6,3,1" false (Algo.Kset_flp.solvable ~n:6 ~f:3 ~k:1)

let test_l_bounds_checked () =
  let module K0 = Algo.Kset_flp.Make (struct
    let l = 0
  end) in
  Alcotest.(check bool) "L=0 rejected" true
    (match K0.init ~n:3 ~me:0 ~input:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* L=1 degenerates to wait-freedom: under the delay-everything
     adversary every process decides its own value solo (n-set) *)
  let module K1 = Algo.Kset_flp.Make (struct
    let l = 1
  end) in
  let module E1 = Sim.Engine.Make (K1) in
  let run =
    E1.run ~n:3 ~inputs:(distinct 3) ~pattern:(FP.none ~n:3)
      (Adv.sequential_solo ~groups:[ [ 0 ]; [ 1 ]; [ 2 ] ])
  in
  Alcotest.(check int) "n distinct decisions solo" 3 (Sim.Run.distinct_decisions run);
  (* ... and converges under a communicative schedule *)
  let run2 =
    E1.run ~n:3 ~inputs:(distinct 3) ~pattern:(FP.none ~n:3) (Adv.round_robin ())
  in
  Alcotest.(check int) "1 decision round-robin" 1 (Sim.Run.distinct_decisions run2)

(* ---------- Kset_flp: exhaustive model checking (small n) ---------- *)

let explore_kset ~l ~n ~dead ~k =
  let module K = Algo.Kset_flp.Make (struct
    let l = l
  end) in
  let module Ex = Sim.Explorer.Make (K) in
  let pattern = FP.initial_dead ~n ~dead in
  Ex.explore ~max_depth:60 ~max_configs:400_000 ~policy:Sim.Explorer.Per_sender
    ~n ~inputs:(distinct n) ~pattern
    ~check:(fun decisions ->
      let values =
        List.sort_uniq compare (List.map (fun (_, v, _) -> v) decisions)
      in
      if List.length values > k then
        Some (Printf.sprintf "%d distinct decisions" (List.length values))
      else if
        List.exists (fun v -> v < 0 || v >= n) values
      then Some "invalid value"
      else None)
    ()

let test_exhaustive_consensus_n3 () =
  (* n=3, L=2: at most floor(3/2)=1 decision over ALL schedules *)
  match explore_kset ~l:2 ~n:3 ~dead:[] ~k:1 with
  | Sim.Explorer.Safe stats ->
      Alcotest.(check bool) "explored completely" false stats.budget_exhausted
  | Sim.Explorer.Violation v -> Alcotest.failf "violated: %s" v.reason

let test_exhaustive_consensus_n3_one_dead () =
  List.iter
    (fun dead ->
      match explore_kset ~l:2 ~n:3 ~dead:[ dead ] ~k:1 with
      | Sim.Explorer.Safe _ -> ()
      | Sim.Explorer.Violation v ->
          Alcotest.failf "dead=%d violated: %s" dead v.reason)
    [ 0; 1; 2 ]

let test_exhaustive_2set_n4 () =
  (* n=4, L=2 (f=2): at most floor(4/2)=2 decisions; check every
     initially-dead pair as well as the failure-free case *)
  let cases = [ [] ; [ 0 ]; [ 3 ]; [ 0; 1 ]; [ 1; 3 ] ] in
  List.iter
    (fun dead ->
      match explore_kset ~l:2 ~n:4 ~dead ~k:2 with
      | Sim.Explorer.Safe _ -> ()
      | Sim.Explorer.Violation v ->
          Alcotest.failf "dead=%s violated: %s"
            (String.concat "," (List.map string_of_int dead))
            v.reason)
    cases

(* ---------- Kset_flp: randomized sweeps ---------- *)

let run_kset ~seed ~n ~f ~dead =
  let l = Algo.Kset_flp.kset_l ~n ~f in
  let module K = Algo.Kset_flp.Make (struct
    let l = l
  end) in
  let module E = Sim.Engine.Make (K) in
  let pattern = FP.initial_dead ~n ~dead in
  let rng = Rng.create ~seed in
  (E.run ~n ~inputs:(distinct n) ~pattern (Adv.fair ~rng), n / l)

let test_randomized_grid () =
  let cases =
    [ (4, 1); (5, 2); (6, 2); (6, 3); (7, 3); (8, 5); (9, 4); (10, 7) ]
  in
  List.iter
    (fun (n, f) ->
      for seed = 1 to 12 do
        let rng = Rng.create ~seed:(seed * 1000) in
        let dead = Rng.sample rng f (List.init n Fun.id) in
        let run, bound = run_kset ~seed ~n ~f ~dead in
        (match Ksa_core.Kset_spec.check ~k:bound run with
        | Ok () -> ()
        | Error e -> Alcotest.failf "n=%d f=%d seed=%d: %s" n f seed e);
        ()
      done)
    cases

let test_kset_under_lossy_delivery () =
  for seed = 1 to 10 do
    let module K = Algo.Kset_flp.Make (struct
      let l = 3
    end) in
    let module E = Sim.Engine.Make (K) in
    let rng = Rng.create ~seed in
    let run =
      E.run ~n:5 ~inputs:(distinct 5)
        ~pattern:(FP.initial_dead ~n:5 ~dead:[ 2; 4 ])
        (Adv.fair_lossy ~rng ~p_defer:0.6)
    in
    match Ksa_core.Kset_spec.check ~k:1 run with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

let test_ablation_decisions_bound_per_l () =
  (* sweeping L shows the floor(n/L) knob of Section VI *)
  let n = 8 in
  List.iter
    (fun l ->
      let module K = Algo.Kset_flp.Make (struct
        let l = l
      end) in
      let module E = Sim.Engine.Make (K) in
      let bound = Algo.Kset_flp.decisions_bound ~n ~l in
      for seed = 1 to 8 do
        let rng = Rng.create ~seed in
        (* adversarial grouping: partition into blocks of size l *)
        let groups = Listx.chunks l (List.init n Fun.id) in
        let groups = List.filter (fun g -> List.length g >= l) groups in
        let adv =
          if seed mod 2 = 0 then Adv.fair ~rng
          else Adv.partition ~groups ()
        in
        let run = E.run ~n ~inputs:(distinct n) ~pattern:(FP.none ~n) adv in
        if Sim.Run.distinct_decisions run > bound then
          Alcotest.failf "L=%d seed=%d: %d > bound %d" l seed
            (Sim.Run.distinct_decisions run)
            bound
      done)
    [ 2; 3; 4; 5; 8 ]

let test_partition_realizes_bound () =
  (* with L = 2 and 4 processes split into two pairs, the partition
     adversary must actually produce 2 distinct decisions *)
  let module K = Algo.Kset_flp.Make (struct
    let l = 2
  end) in
  let module E = Sim.Engine.Make (K) in
  let run =
    E.run ~n:4 ~inputs:(distinct 4) ~pattern:(FP.none ~n:4)
      (Adv.partition ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] ())
  in
  Alcotest.(check int) "exactly 2" 2 (Sim.Run.distinct_decisions run)

(* ---------- oracle-free stacked consensus ---------- *)

module Hb12 = Algo.Stack.Heartbeat_fd (struct
  let window = 12
end)

module Stacked = Algo.Stack.Make (Hb12) (Algo.Synod.A)
module ES = Sim.Engine.Make (Stacked)

let test_stacked_consensus_partial_synchrony () =
  (* consensus with NO oracle: the detector is implemented in-protocol
     and the only assumption is eventual lockstep *)
  List.iter
    (fun (n, dead) ->
      for seed = 1 to 8 do
        let pattern = FP.initial_dead ~n ~dead in
        let rng = Rng.create ~seed in
        let run =
          ES.run ~max_steps:60_000 ~n ~inputs:(distinct n) ~pattern
            (Adv.eventually_lockstep ~rng ~gst:40 ~p_defer:0.5)
        in
        match Ksa_core.Kset_spec.check ~k:1 run with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "n=%d dead=%s seed=%d: %s" n
              (String.concat "," (List.map string_of_int dead))
              seed e
      done)
    [ (4, []); (4, [ 3 ]); (5, [ 0 ]) ]

let test_stacked_safe_under_asynchrony () =
  (* under a partition the home-made detector lies about leadership
     and freshness, so termination may be lost — but agreement cannot
     be: quorum outputs are majorities or Π, which always intersect *)
  let n = 4 in
  let pattern = FP.none ~n in
  let release (obs : Adv.obs) = Adv.time obs > 2_000 in
  let adv = Adv.partition ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] ~release () in
  let run =
    ES.run ~max_steps:3_000 ~n ~inputs:(distinct n) ~pattern adv
  in
  Alcotest.(check bool) "agreement under partition" true
    (Sim.Run.distinct_decisions run <= 1)

let test_heartbeat_fd_view_shape () =
  let module H = Algo.Stack.Heartbeat_fd (struct
    let window = 3
  end) in
  let st = H.init ~n:5 ~me:2 in
  (* never heard anyone: quorum must fall back to the whole system *)
  let st, _ = H.on_step st ~received:[] in
  (match Sim.Fd_view.quorum (H.view st) with
  | Some q -> Alcotest.(check (list int)) "fallback to Pi" [ 0; 1; 2; 3; 4 ] q
  | None -> Alcotest.fail "no quorum component");
  (match Sim.Fd_view.leaders (H.view st) with
  | Some l -> Alcotest.(check (list int)) "self leader" [ 2 ] l
  | None -> Alcotest.fail "no leader component")

(* ---------- Flp_consensus convenience instance ---------- *)

let test_flp_consensus_instance () =
  Alcotest.(check int) "tolerance n=5" 2 (Algo.Flp_consensus.max_initial_crashes ~n:5);
  Alcotest.(check int) "tolerance n=4" 1 (Algo.Flp_consensus.max_initial_crashes ~n:4);
  let module C5 = Algo.Flp_consensus.For (struct
    let n = 5
  end) in
  let module E = Sim.Engine.Make (C5) in
  (* wrong system size rejected *)
  Alcotest.(check bool) "size mismatch" true
    (match E.init ~n:4 ~inputs:(distinct 4) () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  for seed = 1 to 10 do
    let rng = Rng.create ~seed in
    let dead = Rng.sample rng 2 (List.init 5 Fun.id) in
    let run =
      E.run ~n:5 ~inputs:(distinct 5)
        ~pattern:(FP.initial_dead ~n:5 ~dead)
        (Adv.fair ~rng)
    in
    match Ksa_core.Kset_spec.check ~k:1 run with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

let test_flp_consensus_exhaustive_n4 () =
  (* n=4, L=3, one initial crash: uniform consensus over ALL schedules *)
  let module C4 = Algo.Flp_consensus.For (struct
    let n = 4
  end) in
  let module Ex = Sim.Explorer.Make (C4) in
  List.iter
    (fun dead ->
      match
        Ex.explore ~max_configs:600_000 ~n:4 ~inputs:(distinct 4)
          ~pattern:(FP.initial_dead ~n:4 ~dead)
          ~check:(fun decisions ->
            let values =
              List.sort_uniq compare (List.map (fun (_, v, _) -> v) decisions)
            in
            if List.length values > 1 then Some "two decisions" else None)
          ()
      with
      | Sim.Explorer.Safe _ -> ()
      | Sim.Explorer.Violation v ->
          Alcotest.failf "dead=%s: %s"
            (String.concat "," (List.map string_of_int dead))
            v.reason)
    [ [ 0 ]; [ 2 ] ]

(* ---------- Trivial ---------- *)

let test_trivial_decides_own () =
  let module E = Sim.Engine.Make (Algo.Trivial.A) in
  let run =
    E.run ~n:3 ~inputs:[| 7; 8; 9 |] ~pattern:(FP.none ~n:3) (Adv.round_robin ())
  in
  Alcotest.(check (list int)) "everyone own value" [ 7; 8; 9 ]
    (Sim.Run.decided_values run);
  Alcotest.(check int) "no messages" 0 (Sim.Run.message_count run)

(* ---------- Naive_min is flawed ---------- *)

let test_naive_min_violates_under_partition () =
  let module N = Algo.Naive_min.Make (struct
    let wait_for = 2
  end) in
  let module E = Sim.Engine.Make (N) in
  (* claim: 2-set agreement for n=6... partition into 3 pairs refutes
     even 2-set *)
  let run =
    E.run ~n:6 ~inputs:(distinct 6) ~pattern:(FP.none ~n:6)
      (Adv.partition ~groups:[ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ] ())
  in
  Alcotest.(check int) "3 distinct" 3 (Sim.Run.distinct_decisions run)

let test_naive_min_fine_under_fair () =
  (* the flaw is invisible under friendly schedules: that is the point
     of screening *)
  let module N = Algo.Naive_min.Make (struct
    let wait_for = 6
  end) in
  let module E = Sim.Engine.Make (N) in
  for seed = 1 to 10 do
    let rng = Rng.create ~seed in
    let run =
      E.run ~n:6 ~inputs:(distinct 6) ~pattern:(FP.none ~n:6) (Adv.fair ~rng)
    in
    Alcotest.(check int) "consensus-looking" 1 (Sim.Run.distinct_decisions run)
  done

(* ---------- Synod ---------- *)

let synod_fd ~pattern ~leader ~rng ~tgst ~horizon =
  let sigma = Fd.Sigma.blocks ~k:1 ~pattern ~stab:tgst ~horizon () in
  let omega =
    Fd.Omega.gen
      ~chaos:(Fd.Omega.random_chaos ~rng ~n:(FP.n pattern) ~k:1)
      ~k:1 ~pattern ~leaders:[ leader ] ~tgst ~horizon ()
  in
  Fd.History.oracle (Fd.History.combine sigma omega)

let run_synod ~seed ~n ~dead =
  let module E = Sim.Engine.Make (Algo.Synod.A) in
  let pattern = FP.initial_dead ~n ~dead in
  let rng = Rng.create ~seed in
  let leader = List.hd (FP.correct pattern) in
  let fd = synod_fd ~pattern ~leader ~rng:(Rng.split rng) ~tgst:6 ~horizon:40 in
  E.run ~max_steps:50_000 ~fd ~n ~inputs:(distinct n) ~pattern (Adv.fair ~rng)

let test_synod_consensus_failure_free () =
  for seed = 1 to 15 do
    let run = run_synod ~seed ~n:4 ~dead:[] in
    match Ksa_core.Kset_spec.check ~k:1 run with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s (%a)" seed e Sim.Run.pp_summary run
  done

let test_synod_consensus_with_crashes () =
  List.iter
    (fun (n, dead) ->
      for seed = 1 to 10 do
        let run = run_synod ~seed ~n ~dead in
        match Ksa_core.Kset_spec.check ~k:1 run with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "n=%d dead=%s seed=%d: %s" n
              (String.concat "," (List.map string_of_int dead))
              seed e
      done)
    [ (3, [ 0 ]); (4, [ 1; 3 ]); (5, [ 0; 1; 2; 3 ]); (5, [ 4 ]) ]

let test_synod_under_lossy () =
  for seed = 1 to 8 do
    let module E = Sim.Engine.Make (Algo.Synod.A) in
    let pattern = FP.initial_dead ~n:4 ~dead:[ 2 ] in
    let rng = Rng.create ~seed in
    let fd = synod_fd ~pattern ~leader:0 ~rng:(Rng.split rng) ~tgst:8 ~horizon:60 in
    let run =
      E.run ~max_steps:50_000 ~fd ~n:4 ~inputs:(distinct 4) ~pattern
        (Adv.fair_lossy ~rng ~p_defer:0.4)
    in
    match Ksa_core.Kset_spec.check ~k:1 run with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

let test_synod_safe_while_partitioned () =
  (* while a partition adversary withholds cross messages and quorums
     span the system, nobody can decide wrongly: agreement continues
     to hold in every prefix *)
  let module E = Sim.Engine.Make (Algo.Synod.A) in
  let pattern = FP.none ~n:4 in
  let rng = Rng.create ~seed:5 in
  let fd = synod_fd ~pattern ~leader:0 ~rng ~tgst:4 ~horizon:60 in
  let release obs = Adv.time obs > 120 in
  let adv = Adv.partition ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] ~release () in
  let run =
    E.run ~max_steps:4_000 ~fd ~n:4 ~inputs:(distinct 4) ~pattern adv
  in
  Alcotest.(check bool) "at most one value" true
    (Sim.Run.distinct_decisions run <= 1)

let test_synod_safe_with_heterogeneous_quorums () =
  (* Σ only guarantees pairwise intersection, not equality: drive
     Synod with per-process, per-time rotating majorities plus lossy
     delivery and assert agreement still holds *)
  let n = 5 in
  let majority = (n / 2) + 1 in
  for seed = 1 to 12 do
    let pattern = FP.initial_dead ~n ~dead:[ seed mod n ] in
    let correct = FP.correct pattern in
    let stab = 25 in
    let quorums =
      Fd.History.make ~n ~horizon:60 (fun ~time ~me ->
          if time >= stab then Sim.Fd_view.Quorum correct
          else
            Sim.Fd_view.Quorum
              (List.init majority (fun i -> (me + time + i) mod n)))
    in
    let leaders =
      Fd.Omega.gen ~k:1 ~pattern ~leaders:[ List.hd correct ] ~tgst:stab
        ~horizon:60 ()
    in
    let h = Fd.History.combine quorums leaders in
    (* sanity: the hand-rolled history really is a Σ history *)
    (match Fd.Sigma.validate ~k:1 ~pattern h with
    | Ok () -> ()
    | Error e -> Alcotest.failf "history invalid: %s" e);
    let module E = Sim.Engine.Make (Algo.Synod.A) in
    let rng = Rng.create ~seed in
    let run =
      E.run ~max_steps:60_000 ~fd:(Fd.History.oracle h) ~n
        ~inputs:(distinct n) ~pattern
        (Adv.fair_lossy ~rng ~p_defer:0.3)
    in
    match Ksa_core.Kset_spec.check ~k:1 run with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

let test_synod_validity () =
  let run = run_synod ~seed:3 ~n:5 ~dead:[ 1 ] in
  List.iter
    (fun v ->
      Alcotest.(check bool) "decided value was proposed" true (v >= 0 && v < 5))
    (Sim.Run.decided_values run)

(* ---------- the order of a delivered batch ---------- *)

(* The engine folds every delivered batch in canonical (sender,
   payload) order.  For each shipped algorithm without a failure
   detector the order makes no difference beyond representation:
   [step] on any permutation of a batch gives the same decision,
   [canon_message]-equal sends up to order, and a [canon]-equal
   state.  Batches are drawn from the inboxes of random recorded
   prefixes.  The stacked synod
   is the exception, by design: a Paxos acceptor that receives two
   prepares in one batch promises both in ascending order but nacks
   the lower one after the higher, so only the canonical fold pins
   its recorded runs. *)
module Order_free (A : Sim.Algorithm.S) = struct
  module E = Sim.Engine.Make (A)

  let outcome s received =
    let s', sends, dec = A.step s ~received ~fd:None in
    ( s',
      List.sort compare (List.map (fun (d, m) -> (d, A.canon_message m)) sends),
      dec )

  let holds ~n (seed, len) =
    let rng = Random.State.make [| seed |] in
    let some l = List.filter (fun _ -> Random.State.int rng 3 > 0) l in
    let shuffle l =
      List.map snd
        (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))
    in
    let pattern = FP.none ~n in
    let order_free c pid =
      let inbox =
        List.filter_map
          (fun (e : A.message Sim.Envelope.t) ->
            if e.dst = pid then Some (e.src, e.payload) else None)
          (E.pending c)
      in
      let s = E.state_of c pid in
      List.for_all
        (fun batch ->
          let s1, m1, d1 = outcome s batch in
          List.for_all
            (fun _ ->
              let s2, m2, d2 = outcome s (shuffle batch) in
              m1 = m2 && d1 = d2 && A.canon s1 = A.canon s2)
            [ 1; 2; 3 ])
        [ inbox; some inbox ]
    in
    let rec go c len =
      List.for_all (order_free c) (List.init n Fun.id)
      && (len = 0
         ||
         let pid = Random.State.int rng n in
         let deliver = some (List.map fst (E.inbox c pid)) in
         match E.apply ~pattern c (Adv.Step { pid; deliver }) with
         | Some c' -> go c' (len - 1)
         | None | (exception E.Double_decision _) -> true)
    in
    go (E.init ~n ~inputs:(distinct n) ()) len
end

module K2 = Algo.Kset_flp.Make (struct
  let l = 2
end)

module N2 = Algo.Naive_min.Make (struct
  let wait_for = 2
end)

module C3 = Algo.Flp_consensus.For (struct
  let n = 3
end)

module C4 = Algo.Flp_consensus.For (struct
  let n = 4
end)

let order_free_algos :
    (string * (module Sim.Algorithm.S) * int list) list =
  [
    ("kset-flp L=2", (module K2), [ 3; 4 ]);
    ("naive-min", (module N2), [ 3; 4 ]);
    ("trivial", (module Algo.Trivial.A), [ 3; 4 ]);
    ("flp-consensus n=3", (module C3), [ 3 ]);
    ("flp-consensus n=4", (module C4), [ 4 ]);
  ]

let prop_batch_order_free =
  QCheck.Test.make
    ~name:"step on a permuted batch: canon-equal state, sends and decision"
    ~count:60
    QCheck.(pair (int_bound 0x3fffffff) (int_range 0 40))
    (fun walk ->
      List.for_all
        (fun (name, (module A : Sim.Algorithm.S), ns) ->
          let module O = Order_free (A) in
          List.for_all
            (fun n ->
              O.holds ~n walk || QCheck.Test.fail_reportf "%s, n=%d" name n)
            ns)
        order_free_algos)

(* Equal bindings reached in two arrival orders: the two states
   [canon] makes of them are [=] and intern to one id, though
   kset-flp's [need] and naive-min's [seen] are built in two insertion
   orders, which leave two tree shapes. *)
let check_canon_merges (module A : Sim.Algorithm.S) ~n ~me batch =
  let payload p =
    let _, sends, _ =
      A.step (A.init ~n ~me:p ~input:p) ~received:[] ~fd:None
    in
    (p, snd (List.hd sends))
  in
  let batch = List.map payload batch in
  let after received =
    let s, _, _ = A.step (A.init ~n ~me ~input:me) ~received ~fd:None in
    A.canon s
  in
  let s1 = after batch and s2 = after (List.rev batch) in
  Alcotest.(check bool) (A.name ^ ": canon states are =") true (s1 = s2);
  let r = Ksa_prim.Intern.create () in
  Alcotest.(check int)
    (A.name ^ ": one interned id")
    (Ksa_prim.Intern.id r s1) (Ksa_prim.Intern.id r s2)

module K3 = Algo.Kset_flp.Make (struct
  let l = 3
end)

(* L=3 at n=4: p3 enters stage 2 on Hellos [p2; p0] and [p0; p2] *)
let test_kset_canon_merges () =
  check_canon_merges (module K3) ~n:4 ~me:3 [ 2; 0 ]

(* wait 2 at n=3: p0 takes a two-message batch and its reverse *)
let test_naive_min_canon_merges () =
  check_canon_merges (module N2) ~n:3 ~me:0 [ 1; 2 ]

let suites =
  [
    ( "algo.kset_flp",
      [
        Alcotest.test_case "parameters" `Quick test_parameters;
        Alcotest.test_case "L bounds" `Quick test_l_bounds_checked;
        Alcotest.test_case "exhaustive n=3 consensus" `Slow test_exhaustive_consensus_n3;
        Alcotest.test_case "exhaustive n=3 one dead" `Slow test_exhaustive_consensus_n3_one_dead;
        Alcotest.test_case "exhaustive n=4 2-set" `Slow test_exhaustive_2set_n4;
        Alcotest.test_case "randomized grid" `Quick test_randomized_grid;
        Alcotest.test_case "lossy delivery" `Quick test_kset_under_lossy_delivery;
        Alcotest.test_case "ablation: bound per L" `Quick test_ablation_decisions_bound_per_l;
        Alcotest.test_case "partition realizes bound" `Quick test_partition_realizes_bound;
      ] );
    ( "algo.stack",
      [
        Alcotest.test_case "oracle-free consensus" `Quick
          test_stacked_consensus_partial_synchrony;
        Alcotest.test_case "safe under asynchrony" `Quick
          test_stacked_safe_under_asynchrony;
        Alcotest.test_case "heartbeat fd view" `Quick test_heartbeat_fd_view_shape;
      ] );
    ( "algo.flp_consensus",
      [
        Alcotest.test_case "instance" `Quick test_flp_consensus_instance;
        Alcotest.test_case "exhaustive n=4" `Slow test_flp_consensus_exhaustive_n4;
      ] );
    ( "algo.batch_order",
      [
        QCheck_alcotest.to_alcotest prop_batch_order_free;
        Alcotest.test_case "kset-flp canon merges arrival orders" `Quick
          test_kset_canon_merges;
        Alcotest.test_case "naive-min canon merges arrival orders" `Quick
          test_naive_min_canon_merges;
      ] );
    ( "algo.trivial",
      [ Alcotest.test_case "decides own" `Quick test_trivial_decides_own ] );
    ( "algo.naive_min",
      [
        Alcotest.test_case "violates under partition" `Quick test_naive_min_violates_under_partition;
        Alcotest.test_case "looks fine under fair" `Quick test_naive_min_fine_under_fair;
      ] );
    ( "algo.synod",
      [
        Alcotest.test_case "consensus failure-free" `Quick test_synod_consensus_failure_free;
        Alcotest.test_case "consensus with crashes" `Quick test_synod_consensus_with_crashes;
        Alcotest.test_case "lossy" `Quick test_synod_under_lossy;
        Alcotest.test_case "safe while partitioned" `Quick test_synod_safe_while_partitioned;
        Alcotest.test_case "heterogeneous quorums" `Quick
          test_synod_safe_with_heterogeneous_quorums;
        Alcotest.test_case "validity" `Quick test_synod_validity;
      ] );
  ]
