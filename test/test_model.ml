module Sim = Ksa_sim
module Model = Sim.Model
module MC = Sim.Model_check
module FP = Sim.Failure_pattern
module Adv = Sim.Adversary
module Rng = Ksa_prim.Rng

let distinct = Sim.Value.distinct_inputs

module K3 = Ksa_algo.Kset_flp.Make (struct
  let l = 3
end)

module EK3 = Sim.Engine.Make (K3)
module EE = Test_util.Echo_engine

let round_robin_run ?(n = 4) () =
  EK3.run ~n ~inputs:(distinct n) ~pattern:(FP.none ~n) (Adv.round_robin ())

(* ---------- process synchrony ---------- *)

let test_round_robin_is_synchronous () =
  let run = round_robin_run () in
  Alcotest.(check (list string)) "phi = n admissible" []
    (MC.violations (Model.theorem2 ~n:4) run)

let test_starving_schedule_violates_synchrony () =
  (* sequential solo starves the second group during stage one *)
  let n = 4 in
  let run =
    EK3.run ~n ~inputs:(distinct n) ~pattern:(FP.none ~n)
      (Adv.sequential_solo ~groups:[ [ 0; 1; 2 ]; [ 3 ] ])
  in
  ignore run;
  (* the solo run above may decide too fast to starve anyone; use a
     bigger first group workload with echo instead *)
  let run =
    EE.run ~n:5 ~inputs:(distinct 5)
      ~pattern:(FP.none ~n:5)
      (Adv.sequential_solo ~groups:[ [ 0; 1; 2 ]; [ 3; 4 ] ])
  in
  Alcotest.(check bool) "phi = 3 violated" true
    (MC.violations
       { (Model.theorem2 ~n:5) with Model.processes = Model.Sync_processes 3 }
       run
    <> [])

let test_crashed_processes_exempt () =
  let n = 4 in
  let pattern = FP.initial_dead ~n ~dead:[ 2 ] in
  let run = EK3.run ~n ~inputs:(distinct n) ~pattern (Adv.round_robin ()) in
  Alcotest.(check (list string)) "dead process not required to step" []
    (MC.violations (Model.theorem2 ~n) run)

(* ---------- communication synchrony ---------- *)

let test_round_robin_delta_bounded () =
  (* round-robin delivers everything within one lap: delta = 2n is safe *)
  let run = round_robin_run () in
  let m =
    { (Model.theorem2 ~n:4) with Model.communication = Model.Sync_comm 8 }
  in
  Alcotest.(check (list string)) "delta-bounded" [] (MC.violations m run)

let test_partition_violates_delta () =
  let n = 4 in
  let run =
    EK3.run ~n ~inputs:(distinct n) ~pattern:(FP.none ~n)
      (Adv.partition ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] ())
  in
  ignore run;
  (* kset-flp with L=3 cannot decide inside groups of 2, so the
     partition adversary releases late or never; use L=2 where groups
     decide solo and cross messages stay pending past any small delta *)
  let module K2 = Ksa_algo.Kset_flp.Make (struct
    let l = 2
  end) in
  let module E2 = Sim.Engine.Make (K2) in
  let run =
    E2.run ~n ~inputs:(distinct n) ~pattern:(FP.none ~n)
      (Adv.partition ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] ())
  in
  let m =
    { (Model.theorem2 ~n) with Model.communication = Model.Sync_comm 2 }
  in
  Alcotest.(check bool) "delta=2 violated by withheld messages" true
    (MC.violations m run <> [])

(* ---------- order / transmission / atomicity ---------- *)

let test_round_robin_fifo () =
  let run = round_robin_run () in
  let m = { (Model.theorem2 ~n:4) with Model.order = Model.Fifo } in
  Alcotest.(check (list string)) "deliver-all is fifo" [] (MC.violations m run)

let test_lossy_breaks_fifo_sometimes () =
  (* with random deferral, some channel is eventually served out of order *)
  let found = ref false in
  for seed = 1 to 40 do
    if not !found then begin
      let rng = Rng.create ~seed in
      let run =
        EE.run ~n:3 ~inputs:(distinct 3)
          ~pattern:(FP.none ~n:3)
          (Adv.fair_lossy ~rng ~p_defer:0.7)
      in
      let m = { Model.masync with Model.order = Model.Fifo } in
      if MC.violations m run <> [] then found := true
    end
  done;
  Alcotest.(check bool) "fifo violation observable" true !found

let test_broadcast_shape () =
  let run = round_robin_run () in
  Alcotest.(check (list string)) "kset-flp broadcasts" []
    (MC.violations { Model.masync with Model.transmission = Model.Broadcast } run);
  Alcotest.(check bool) "kset-flp is not unicast" true
    (MC.violations { Model.masync with Model.transmission = Model.Unicast } run
    <> [])

let test_atomicity_check () =
  let run = round_robin_run () in
  (* kset-flp receives and replies in one step: violates Separate *)
  Alcotest.(check bool) "separate violated" true
    (MC.violations { Model.masync with Model.atomicity = Model.Separate } run
    <> [])

let test_trivial_is_everything () =
  (* the trivial algorithm never sends: admissible in all 32 models *)
  let module T = Sim.Engine.Make (Ksa_algo.Trivial.A) in
  let run =
    T.run ~n:3 ~inputs:(distinct 3) ~pattern:(FP.none ~n:3) (Adv.round_robin ())
  in
  Alcotest.(check int) "all 32 combinations" 32
    (List.length (MC.admissible_models run ~phi:3 ~delta:3))

(* ---------- Theorem 2 end-to-end ---------- *)

let test_theorem2_demonstrate () =
  List.iter
    (fun (n, f, k) ->
      match Ksa_core.Theorem2.demonstrate ~n ~f ~k with
      | Error e -> Alcotest.failf "(%d,%d,%d): %s" n f k e
      | Ok r ->
          Alcotest.(check bool) "lemma3" true r.Ksa_core.Theorem2.lemma3;
          Alcotest.(check bool) "lemma4" true r.Ksa_core.Theorem2.lemma4;
          Alcotest.(check bool) "witness" true (r.Ksa_core.Theorem2.witness <> None);
          Alcotest.(check bool) "sync-model admissible" true
            (r.Ksa_core.Theorem2.witness_admissible = Ok ());
          Alcotest.(check bool) "applies" true r.Ksa_core.Theorem2.theorem_applies)
    [ (5, 3, 2); (7, 5, 3); (4, 3, 3) ]

let test_theorem2_outside_region () =
  match Ksa_core.Theorem2.demonstrate ~n:5 ~f:2 ~k:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "k(n-f)+1 > n: theorem should not apply"

let suites =
  [
    ( "sim.model",
      [
        Alcotest.test_case "round-robin is synchronous" `Quick
          test_round_robin_is_synchronous;
        Alcotest.test_case "starvation violates synchrony" `Quick
          test_starving_schedule_violates_synchrony;
        Alcotest.test_case "crashed exempt" `Quick test_crashed_processes_exempt;
        Alcotest.test_case "round-robin delta-bounded" `Quick
          test_round_robin_delta_bounded;
        Alcotest.test_case "partition violates delta" `Quick
          test_partition_violates_delta;
        Alcotest.test_case "round-robin fifo" `Quick test_round_robin_fifo;
        Alcotest.test_case "lossy breaks fifo" `Quick test_lossy_breaks_fifo_sometimes;
        Alcotest.test_case "broadcast shape" `Quick test_broadcast_shape;
        Alcotest.test_case "atomicity" `Quick test_atomicity_check;
        Alcotest.test_case "trivial in all 32" `Quick test_trivial_is_everything;
      ] );
    ( "core.theorem2",
      [
        Alcotest.test_case "demonstrate" `Quick test_theorem2_demonstrate;
        Alcotest.test_case "outside region" `Quick test_theorem2_outside_region;
      ] );
  ]
