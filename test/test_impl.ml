(* Failure-detector implementations from partial synchrony. *)

module Sim = Ksa_sim
module Fd = Ksa_fd
module FP = Sim.Failure_pattern
module Adv = Sim.Adversary
module Rng = Ksa_prim.Rng
module HB = Sim.Engine.Make (Fd.Impl.Heartbeat)

let heartbeat_run ~seed ~n ~dead ~gst ~steps =
  let pattern = FP.initial_dead ~n ~dead in
  let rng = Rng.create ~seed in
  HB.run ~max_steps:steps ~n
    ~inputs:(Sim.Value.distinct_inputs n)
    ~pattern
    (Adv.eventually_lockstep ~rng ~gst ~p_defer:0.6)

let test_omega_extraction_valid () =
  for seed = 1 to 10 do
    let n = 5 in
    let pattern = FP.initial_dead ~n ~dead:[ 0 ] in
    let run = heartbeat_run ~seed ~n ~dead:[ 0 ] ~gst:40 ~steps:150 in
    let h = Fd.Impl.omega_of_run run ~window:(3 * n) in
    match Fd.Omega.validate ~k:1 ~pattern h with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

let test_omega_extraction_leader_is_min_alive () =
  let n = 4 in
  let run = heartbeat_run ~seed:3 ~n ~dead:[ 0; 1 ] ~gst:30 ~steps:120 in
  let pattern = FP.initial_dead ~n ~dead:[ 0; 1 ] in
  let h = Fd.Impl.omega_of_run run ~window:12 in
  match Fd.Omega.check_eventual_leadership ~pattern h with
  | Ok (_, ld) -> Alcotest.(check (list int)) "min alive" [ 2 ] ld
  | Error e -> Alcotest.fail e

let test_sigma_extraction_valid () =
  for seed = 1 to 10 do
    let n = 5 in
    let dead = [ 4 ] in
    let pattern = FP.initial_dead ~n ~dead in
    let run = heartbeat_run ~seed ~n ~dead ~gst:40 ~steps:150 in
    let h = Fd.Impl.sigma_of_run run ~window:(3 * n) in
    match Fd.Sigma.validate ~k:1 ~pattern h with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

let test_sigma_intersection_even_pre_gst () =
  (* intersection is unconditional: check on a run that never
     stabilizes (gst beyond the budget) *)
  let n = 5 in
  let pattern = FP.none ~n in
  let run = heartbeat_run ~seed:7 ~n ~dead:[] ~gst:10_000 ~steps:120 in
  let h = Fd.Impl.sigma_of_run run ~window:8 in
  Alcotest.(check bool) "no intersection violation" true
    (Fd.Sigma.find_intersection_violation ~k:1 ~pattern h = None)

let test_extracted_pair_drives_synod () =
  (* end to end: implement (Sigma, Omega) from partial synchrony, then
     use the extracted histories as the oracle for Synod *)
  let n = 4 in
  let pattern = FP.none ~n in
  let hb = heartbeat_run ~seed:11 ~n ~dead:[] ~gst:30 ~steps:140 in
  let sigma = Fd.Impl.sigma_of_run hb ~window:12 in
  let omega = Fd.Impl.omega_of_run hb ~window:12 in
  let oracle = Fd.History.oracle (Fd.History.combine sigma omega) in
  let module ES = Sim.Engine.Make (Ksa_algo.Synod.A) in
  let rng = Rng.create ~seed:5 in
  let run =
    ES.run ~max_steps:50_000 ~fd:oracle ~n
      ~inputs:(Sim.Value.distinct_inputs n)
      ~pattern (Adv.fair ~rng)
  in
  match Ksa_sim.Kset_spec.check ~k:1 run with
  | None -> ()
  | Some e -> Alcotest.failf "synod over implemented FDs: %s" e

let test_heartbeat_never_decides () =
  let run = heartbeat_run ~seed:1 ~n:3 ~dead:[] ~gst:5 ~steps:60 in
  Alcotest.(check int) "no decisions" 0 (List.length run.Sim.Run.decisions);
  Alcotest.(check bool) "budget status" true
    (run.Sim.Run.status = Sim.Run.Hit_step_budget)

let suites =
  [
    ( "fd.impl",
      [
        Alcotest.test_case "omega extraction validates" `Quick
          test_omega_extraction_valid;
        Alcotest.test_case "omega leader = min alive" `Quick
          test_omega_extraction_leader_is_min_alive;
        Alcotest.test_case "sigma extraction validates" `Quick
          test_sigma_extraction_valid;
        Alcotest.test_case "sigma intersection unconditional" `Quick
          test_sigma_intersection_even_pre_gst;
        Alcotest.test_case "extracted pair drives synod" `Quick
          test_extracted_pair_drives_synod;
        Alcotest.test_case "heartbeat never decides" `Quick
          test_heartbeat_never_decides;
      ] );
  ]
