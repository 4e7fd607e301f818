(* Edge cases and API surface not covered elsewhere. *)

module Sim = Ksa_sim
module Fd = Ksa_fd
module Core = Ksa_core
module FP = Sim.Failure_pattern
module Rng = Ksa_prim.Rng

let distinct = Sim.Value.distinct_inputs

(* ---------- pid / value ---------- *)

let test_pid_value_basics () =
  Alcotest.(check (list int)) "universe" [ 0; 1; 2 ] (Sim.Pid.universe 3);
  Alcotest.(check bool) "valid" true (Sim.Pid.valid ~n:3 2);
  Alcotest.(check bool) "invalid" false (Sim.Pid.valid ~n:3 3);
  Alcotest.(check bool) "invalid neg" false (Sim.Pid.valid ~n:3 (-1));
  Alcotest.(check string) "pp" "p4" (Format.asprintf "%a" Sim.Pid.pp 4);
  Alcotest.(check (array int)) "distinct inputs" [| 0; 1; 2 |]
    (Sim.Value.distinct_inputs 3)

(* ---------- borders: argument validation ---------- *)

let test_border_argument_checks () =
  Alcotest.(check bool) "f >= n rejected" true
    (match Core.Border.theorem2_impossible ~n:3 ~f:3 ~k:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "k = 0 rejected" true
    (match Core.Border.theorem8_solvable ~n:3 ~f:1 ~k:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "corollary13 domain" true
    (match Core.Border.corollary13_solvable ~n:4 ~k:4 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- History.tabulate and map ---------- *)

let test_history_tabulate () =
  let h =
    Fd.History.make ~n:2 ~horizon:3 (fun ~time ~me ->
        Sim.Fd_view.Lonely (time + me > 2))
  in
  let table = Fd.History.tabulate h in
  Alcotest.(check int) "rows" 4 (Array.length table);
  Alcotest.(check int) "cols" 2 (Array.length table.(1));
  Alcotest.(check bool) "cell (3,0)" true
    (table.(3).(0) = Sim.Fd_view.Lonely true);
  Alcotest.(check bool) "cell (1,0)" true
    (table.(1).(0) = Sim.Fd_view.Lonely false);
  let mapped =
    Fd.History.map h (function
      | Sim.Fd_view.Lonely b -> Sim.Fd_view.Lonely (not b)
      | v -> v)
  in
  Alcotest.(check bool) "map flips" true
    (mapped.Fd.History.view ~time:3 ~me:0 = Sim.Fd_view.Lonely false)

(* ---------- theorem 10 partition: None outside region ---------- *)

let test_theorem10_partition_domain () =
  Alcotest.(check bool) "k=1 excluded" true
    (Core.Partitioning.theorem10 ~n:5 ~k:1 = None);
  Alcotest.(check bool) "k=n-1 excluded" true
    (Core.Partitioning.theorem10 ~n:5 ~k:4 = None);
  Alcotest.(check bool) "k=2 included" true
    (Core.Partitioning.theorem10 ~n:5 ~k:2 <> None)

(* ---------- Run: last_decision_time with undecided ---------- *)

let test_last_decision_time_none () =
  let module E = Test_util.Echo_engine in
  let pattern = FP.initial_dead ~n:3 ~dead:[ 2 ] in
  let run =
    E.run ~n:3 ~inputs:(distinct 3) ~pattern (Sim.Adversary.round_robin ())
  in
  Alcotest.(check (option int)) "dead process never decides" None
    (Sim.Run.last_decision_time run [ 0; 2 ]);
  Alcotest.(check bool) "decided pair has a time" true
    (Sim.Run.last_decision_time run [ 0; 1 ] <> None)

(* ---------- Engine.finish preserves inputs ---------- *)

let test_finish_preserves_inputs () =
  let module E = Test_util.Echo_engine in
  let inputs = [| 5; 6; 7 |] in
  let c = E.init ~n:3 ~inputs () in
  let run = E.finish c ~pattern:(FP.none ~n:3) Sim.Run.Halted_by_adversary in
  Alcotest.(check (array int)) "inputs" inputs run.Sim.Run.inputs;
  Alcotest.(check int) "no events" 0 (List.length run.Sim.Run.events)

(* ---------- Model pp smoke / admissible_models monotonicity ---------- *)

let test_model_pp_and_cube () =
  let s = Format.asprintf "%a" Sim.Model.pp (Sim.Model.theorem2 ~n:4) in
  Alcotest.(check bool) "mentions sync procs" true
    (String.length s > 0);
  (* a run admissible in a stronger model is admissible in weaker ones:
     count of admissible models for a round-robin run must be >= that
     of a solo-starved run *)
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = 2
  end) in
  let module E = Sim.Engine.Make (K) in
  let rr =
    E.run ~n:4 ~inputs:(distinct 4) ~pattern:(FP.none ~n:4)
      (Sim.Adversary.round_robin ())
  in
  let solo =
    E.run ~n:4 ~inputs:(distinct 4) ~pattern:(FP.none ~n:4)
      (Sim.Adversary.sequential_solo ~groups:[ [ 0; 1 ]; [ 2; 3 ] ])
  in
  let count run = List.length (Sim.Model_check.admissible_models run ~phi:4 ~delta:8) in
  Alcotest.(check bool) "round-robin at least as admissible" true
    (count rr >= count solo);
  Alcotest.(check bool) "everything admits masync-minus-broadcast" true (count solo >= 1)

(* ---------- Loneliness: liar set interplay ---------- *)

let test_loneliness_from_time () =
  let pattern = FP.none ~n:3 in
  let h = Fd.Loneliness.gen ~liars:[ 1 ] ~from:4 ~witness:0 ~pattern ~horizon:8 () in
  Alcotest.(check (option bool)) "before from" (Some false)
    (Sim.Fd_view.lonely (h.Fd.History.view ~time:3 ~me:1));
  Alcotest.(check (option bool)) "after from" (Some true)
    (Sim.Fd_view.lonely (h.Fd.History.view ~time:4 ~me:1));
  Test_util.check_ok "valid" (Fd.Loneliness.validate ~pattern h)

(* ---------- Experiments verdict printer ---------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_verdict_pp () =
  let v =
    { Core.Experiments.id = "EX"; claim = "c"; holds = true; detail = "d" }
  in
  let s = Format.asprintf "%a" Core.Experiments.pp_verdict v in
  Alcotest.(check bool) "reproduced" true (contains s "REPRODUCED");
  let bad = { v with Core.Experiments.holds = false } in
  let s = Format.asprintf "%a" Core.Experiments.pp_verdict bad in
  Alcotest.(check bool) "mismatch" true (contains s "MISMATCH");
  (* the exit status of [ksa experiments] *)
  Alcotest.(check int) "all hold" 0 (Core.Experiments.exit_code [ v; v ]);
  Alcotest.(check int) "one mismatch" 1 (Core.Experiments.exit_code [ v; bad ]);
  Alcotest.(check int) "none run" 0 (Core.Experiments.exit_code [])

let suites =
  [
    ( "misc",
      [
        Alcotest.test_case "pid/value basics" `Quick test_pid_value_basics;
        Alcotest.test_case "border argument checks" `Quick test_border_argument_checks;
        Alcotest.test_case "history tabulate/map" `Quick test_history_tabulate;
        Alcotest.test_case "last decision time" `Quick test_last_decision_time_none;
        Alcotest.test_case "theorem 10 domain" `Quick test_theorem10_partition_domain;
        Alcotest.test_case "finish preserves inputs" `Quick test_finish_preserves_inputs;
        Alcotest.test_case "model pp / DDS cube" `Quick test_model_pp_and_cube;
        Alcotest.test_case "loneliness from-time" `Quick test_loneliness_from_time;
        Alcotest.test_case "verdict printer" `Quick test_verdict_pp;
      ] );
  ]
