(* Benchmark harness: times the building blocks with bechamel (one
   Test.make per experiment, plus ablation benches for the engine, the
   explorer and the graph substrate).  The experiment tables and their
   REPRODUCED / MISMATCH verdicts are [ksa experiments].

     dune exec bench/main.exe -- bench          # human table
     dune exec bench/main.exe -- bench --json   # ...and BENCH_*.json *)

open Bechamel
open Toolkit
module Sim = Ksa_sim
module Core = Ksa_core
module Algo = Ksa_algo
module Fd = Ksa_fd
module Rng = Ksa_prim.Rng
module Metrics = Ksa_prim.Metrics

(* ------------------------------------------------------------------ *)
(* benchmark subjects: one per experiment                              *)
(* ------------------------------------------------------------------ *)

module K2 = Algo.Kset_flp.Make (struct
  let l = 2
end)

module K16 = Algo.Kset_flp.Make (struct
  let l = 16
end)

module EK16 = Sim.Engine.Make (K16)
module ExK2 = Sim.Explorer.Make (K2)

module Naive2 = Algo.Naive_min.Make (struct
  let wait_for = 2
end)

let bench_e1_screening () =
  (* E1: Theorem-1 screening at n=6, f=4, k=2 *)
  let partition = Option.get (Core.Partitioning.theorem2 ~n:6 ~f:4 ~k:2) in
  ignore (Core.Theorem1.screen (module K2) ~partition)

let bench_e2_protocol_run () =
  (* E2: one solvable-regime run, n=8, f=3, L=5 *)
  let module K5 = Algo.Kset_flp.Make (struct
    let l = 5
  end) in
  let module E = Sim.Engine.Make (K5) in
  let rng = Rng.create ~seed:11 in
  let pattern = Sim.Failure_pattern.initial_dead ~n:8 ~dead:[ 1; 4; 6 ] in
  ignore
    (E.run ~n:8 ~inputs:(Sim.Value.distinct_inputs 8) ~pattern
       (Sim.Adversary.fair ~rng))

let bench_e2_border_pasting () =
  (* E2 border: k+1-way pasted run at n=6, k=2 *)
  ignore (Core.Pasting.lemma12 (module K2) ~groups:[ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ])

let bench_e3_scale_n24 () =
  (* E3: protocol at n=24, f=8, L=16 *)
  let rng = Rng.create ~seed:3 in
  let pattern =
    Sim.Failure_pattern.initial_dead ~n:24 ~dead:[ 0; 3; 6; 9; 12; 15; 18; 21 ]
  in
  ignore
    (EK16.run ~n:24 ~inputs:(Sim.Value.distinct_inputs 24) ~pattern
       (Sim.Adversary.fair ~rng))

let bench_e4_source_components () =
  (* E4: Lemma 6/7 computation on a random 400-vertex digraph *)
  let rng = Rng.create ~seed:5 in
  let g = Ksa_dgraph.Gen.min_in_degree rng ~n:400 ~delta:3 in
  ignore (Ksa_dgraph.Source.source_components g)

let bench_e5_lemma12_synod () =
  (* E5: the Theorem-10 construction at n=5, k=3 *)
  ignore
    (Core.Pasting.lemma12 (module Algo.Synod.A)
       ~groups:[ [ 0 ]; [ 1 ]; [ 2; 3; 4 ] ])

let bench_e6_coverage () =
  (* E6: border sweep to n=64 *)
  let t = ref 0 in
  for n = 4 to 64 do
    for k = 2 to n - 2 do
      if Core.Border.theorem10_impossible ~n ~k then incr t;
      if Core.Border.bouzid_travers_impossible ~n ~k then decr t
    done
  done;
  ignore !t

let bench_e7_history_validation () =
  (* E7: generate + validate one partition history (n=6, k=3) *)
  let pattern = Sim.Failure_pattern.initial_dead ~n:6 ~dead:[ 5 ] in
  let spec =
    {
      Fd.Partition_fd.groups = [ [ 0 ]; [ 1 ]; [ 2; 3; 4; 5 ] ];
      leaders = [ 0; 1; 2 ];
      tgst = 4;
      stab = 3;
    }
  in
  let h = Fd.Partition_fd.gen spec ~pattern ~horizon:10 in
  ignore (Fd.Partition_fd.validate_partition_property spec ~pattern h);
  ignore (Fd.Partition_fd.lemma9_check ~k:3 ~pattern h)

let bench_e8_screen_naive () =
  let partition = Core.Partitioning.make ~n:5 ~groups:[ [ 0; 1 ] ] in
  ignore (Core.Theorem1.screen (module Naive2) ~partition)

let bench_e9_independence () =
  let module K3 = Algo.Kset_flp.Make (struct
    let l = 3
  end) in
  ignore
    (Core.Independence.satisfies
       (module K3)
       ~n:5
       ~family:(Core.Independence.f_resilient_family ~n:5 ~f:2))

(* ablations *)

let bench_ablation_explorer_n3 () =
  ignore
    (ExK2.explore ~n:3
       ~inputs:(Sim.Value.distinct_inputs 3)
       ~pattern:(Sim.Failure_pattern.none ~n:3)
       ~check:(fun _ -> None)
       ())

let bench_ablation_engine_throughput () =
  (* raw step cost: message-free protocol, round-robin, n=32 *)
  let module T = Sim.Engine.Make (Algo.Trivial.A) in
  ignore
    (T.run ~n:32
       ~inputs:(Sim.Value.distinct_inputs 32)
       ~pattern:(Sim.Failure_pattern.none ~n:32)
       (Sim.Adversary.round_robin ()))

let bench_ablation_scc_50k () =
  let n = 50_000 in
  let g =
    Ksa_dgraph.Digraph.create ~n ~edges:(List.init (n - 1) (fun i -> (i, i + 1)))
  in
  ignore (Ksa_dgraph.Scc.compute g)

let bench_e10_ho_uniform_voting () =
  (* E10: UniformVoting over a partitioned then released HO assignment *)
  let module EUV = Ksa_ho.Engine.Make (Ksa_ho.Uniform_voting.A) in
  let a =
    Ksa_ho.Assignment.partitioned ~n:8
      ~groups:[ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7 ] ]
      ~until:6 ()
  in
  ignore
    (EUV.run ~n:8 ~inputs:(Sim.Value.distinct_inputs 8) ~assignment:a ~rounds:12 ())

let bench_e12_crash_explorer () =
  (* E12: exhaustive crash-adversarial classification at n=3 *)
  let module Ex = Sim.Explorer.Make (K2) in
  ignore
    (Ex.explore_with_crashes ~n:3
       ~inputs:(Sim.Value.distinct_inputs 3)
       ~crash_budget:1
       ~check:(fun _ -> None)
       ())

let bench_e12_crash_explorer_checkpointed () =
  (* the e12:crash-explorer-n3 space with a live checkpoint sink at
     the default 5s cadence: measures the steady-state overhead of
     the interrupt polls and due-checks (the campaign finishes before
     a periodic write fires, so this is the common-case tax a
     --checkpoint flag adds — target: within 5% of the bare run) *)
  let module Ex = Sim.Explorer.Make (K2) in
  let path = Filename.temp_file "ksa_bench" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let ckpt =
        Sim.Checkpoint.ctl
          ~sink:
            {
              Sim.Checkpoint.path;
              kind = "explore-crash";
              fingerprint = "bench";
              policy = Sim.Checkpoint.default_policy;
            }
          ~interrupt:(fun () -> false)
          ()
      in
      ignore
        (Ex.explore_with_crashes ~ckpt ~n:3
           ~inputs:(Sim.Value.distinct_inputs 3)
           ~crash_budget:1
           ~check:(fun _ -> None)
           ()))

let bench_e12_crash_explorer_par () =
  (* multicore crash explorer, same space as e12:crash-explorer-n3 *)
  let module Ex = Sim.Explorer.Make (K2) in
  ignore
    (Ex.explore_with_crashes_par ~domains:4 ~n:3
       ~inputs:(Sim.Value.distinct_inputs 3)
       ~crash_budget:1
       ~check:(fun _ -> None)
       ())

let bench_byzantine_explorer () =
  (* the Byzantine model on the e12 space: same n=3 subject, budget-1
     corruption instead of budget-1 crashing — measures what the forged
     deliveries cost over plain crash exploration.  The [check] never
     trips; forging at delivery leaves a space of about 301k configs,
     still just past the default 300k-config budget: the run stops
     there and its row is labelled truncated, so its time is not
     comparable with the crash subject's full graph *)
  let module Ex = Sim.Explorer.Make (K2) in
  ignore
    (Ex.explore_with_crashes ~model:(Sim.Fault_model.Byzantine 1) ~n:3
       ~inputs:(Sim.Value.distinct_inputs 3)
       ~crash_budget:1
       ~check:(fun _ -> None)
       ())

let bench_mobile_explorer () =
  (* the mobile model on the same space: per-round transient omission
     successors instead of crash successors *)
  let module Ex = Sim.Explorer.Make (K2) in
  ignore
    (Ex.explore_with_crashes ~model:(Sim.Fault_model.Mobile 1) ~n:3
       ~inputs:(Sim.Value.distinct_inputs 3)
       ~crash_budget:1
       ~check:(fun _ -> None)
       ())

let bench_crash_explorer_scaling domains () =
  (* scaling family: the e12:crash-explorer-n3 space at fixed worker
     counts over the shared sharded dedup table.  Every member admits
     the same 28 374 configurations (dedup is global, tickets are
     dense), so ns_per_run differences are pure scheduling +
     synchronisation cost; the JSON writer derives speedup_vs_seq
     against the sequential e12 subject, and writes null where the
     worker count exceeds the machine's cores *)
  let module Ex = Sim.Explorer.Make (K2) in
  ignore
    (Ex.explore_with_crashes_par ~domains ~n:3
       ~inputs:(Sim.Value.distinct_inputs 3)
       ~crash_budget:1
       ~check:(fun _ -> None)
       ())

(* reduction family: the same crash spaces under orbit-key admission.
   The n=3 pair shares its space with e12:crash-explorer-n3, so the
   JSON writer can emit reduction_ratio (unreduced admitted over
   reduced admitted) from the two subjects' counter deltas.  The n=4
   subject is the scale-up the reduction exists for: under the coarse
   delivery policy the unreduced space blows past the default
   300k-config budget (the checkpoint-smoke CI leg pins that), while
   the orbit-keyed search closes it outright — its ratio is therefore
   a lower bound computed against the budget. *)

let bench_reduction_crash_n3 reduction () =
  let module Ex = Sim.Explorer.Make (K2) in
  ignore
    (Ex.explore_with_crashes ~reduction ~n:3
       ~inputs:(Sim.Value.distinct_inputs 3)
       ~crash_budget:1
       ~check:(fun _ -> None)
       ())

let bench_reduction_crash_n4 () =
  let module Ex = Sim.Explorer.Make (K2) in
  ignore
    (Ex.explore_with_crashes ~reduction:Sim.Canon.Symmetry
       ~policy:Sim.Explorer.Empty_or_all ~n:4
       ~inputs:(Sim.Value.distinct_inputs 4)
       ~crash_budget:1
       ~check:(fun _ -> None)
       ())

let bench_ablation_explorer_n4 () =
  (* n=4 exhaustive under the coarse delivery policy (full space,
     fewer delivery choices — Per_sender at n=4 is ~27 s/run) *)
  let module Ex = Sim.Explorer.Make (K2) in
  ignore
    (Ex.explore ~policy:Sim.Explorer.Empty_or_all ~n:4
       ~inputs:(Sim.Value.distinct_inputs 4)
       ~pattern:(Sim.Failure_pattern.none ~n:4)
       ~check:(fun _ -> None)
       ())

let bench_ablation_explorer_par_n4 () =
  (* the same n=4 space fanned over 4 domains *)
  let module Ex = Sim.Explorer.Make (K2) in
  ignore
    (Ex.explore ~domains:4 ~policy:Sim.Explorer.Empty_or_all ~n:4
       ~inputs:(Sim.Value.distinct_inputs 4)
       ~pattern:(Sim.Failure_pattern.none ~n:4)
       ~check:(fun _ -> None)
       ())

let bench_theorem2_demonstrate () =
  ignore (Core.Theorem2.demonstrate ~n:6 ~f:4 ~k:2)

let bench_e13_abd_torture () =
  (* E13: one ABD torture run at n=4 with a crash *)
  let module Torture = Ksa_sm.Abd.Make (struct
    let script = Ksa_sm.Abd.write_then_read_all
    let write_back = true
  end) in
  let module E = Sim.Engine.Make (Torture) in
  let rng = Rng.create ~seed:7 in
  let pattern = Sim.Failure_pattern.initial_dead ~n:4 ~dead:[ 3 ] in
  let run, config =
    E.run_full ~max_steps:80_000 ~n:4
      ~inputs:(Sim.Value.distinct_inputs 4)
      ~pattern (Sim.Adversary.fair ~rng)
  in
  let ops = Torture.ops_of run ~state_of:(E.state_of config) in
  ignore (Ksa_sm.Register.check_atomic ops)

let bench_ablation_replay () =
  (* record + replay a run *)
  let rng = Rng.create ~seed:13 in
  let pattern = Sim.Failure_pattern.none ~n:6 in
  let module K4 = Algo.Kset_flp.Make (struct
    let l = 4
  end) in
  let module E = Sim.Engine.Make (K4) in
  let orig =
    E.run ~n:6 ~inputs:(Sim.Value.distinct_inputs 6) ~pattern
      (Sim.Adversary.fair ~rng)
  in
  let stream = Sim.Replay.project ~keep:(fun _ -> true) orig in
  ignore
    (E.run ~n:6 ~inputs:(Sim.Value.distinct_inputs 6) ~pattern
       (Sim.Replay.sequential [ stream ]))

(* trace-layer subjects: the Theorem-1 screen is dominated by recorded
   runs (every step used to Marshal+MD5 the stepped state; now one
   interned id, memoized per (state, received) pair), and the Indist
   comparisons are exact integer-sequence equalities over traces *)

let bench_screen_section6_n4 () =
  let partition = Core.Partitioning.make ~n:4 ~groups:[ [ 0; 1 ] ] in
  ignore (Core.Theorem1.screen (module K2) ~partition)

let indist_runs =
  (* precomputed outside the staged closure: the subject is the
     Definition 2/3 comparison itself, not run recording *)
  lazy
    (let module K4 = Algo.Kset_flp.Make (struct
       let l = 4
     end) in
    let module E = Sim.Engine.Make (K4) in
    let go seed =
      let rng = Rng.create ~seed in
      E.run ~n:6
        ~inputs:(Sim.Value.distinct_inputs 6)
        ~pattern:(Sim.Failure_pattern.none ~n:6)
        (Sim.Adversary.fair ~rng)
    in
    (go 21, go 22))

let bench_indist_for_all_n6 () =
  let ra, rb = Lazy.force indist_runs in
  ignore (Core.Indist.for_all ra rb [ 0; 1; 2; 3; 4; 5 ]);
  ignore (Core.Indist.for_all ra ra [ 0; 1; 2; 3; 4; 5 ])

(* fuzz-layer subjects: one campaign that finds a violation and shrinks
   it (trivial decides its own input, so any two steps by distinct pids
   break 1-agreement), and one clean campaign over the Section VI
   protocol where the decision bound keeps every trial within k *)

module FuzzTrivial = Sim.Fuzz.Make (Algo.Trivial.A)
module FuzzK2 = Sim.Fuzz.Make (K2)

let bench_fuzz_trivial_shrink () =
  let cfg = Sim.Fuzz.default_config ~k:1 ~n:3 () in
  ignore (FuzzTrivial.run cfg ~seed:7 ~trials:50)

let bench_fuzz_kset_clean () =
  let cfg =
    { (Sim.Fuzz.default_config ~k:1 ~n:3 ()) with Sim.Fuzz.max_crashes = 1 }
  in
  ignore (FuzzK2.run cfg ~seed:7 ~trials:25)

(* greybox-vs-blind family: the same trial budget on the clean
   kset-flp n=3 subject, once blind and once coverage-guided.  Each
   thunk records how many distinct interned state ids the campaign
   visited in a gauge, so the JSON writer can derive
   distinct_states_per_sec = ids / (ns_per_run / 1e9) for both modes
   — the figure the greybox mode exists to improve. *)
let g_fuzz_distinct = Metrics.gauge "fuzz.bench.distinct_ids"

let bench_fuzz_kset_modes coverage () =
  let cfg =
    {
      (Sim.Fuzz.default_config ~k:1 ~n:3 ()) with
      Sim.Fuzz.max_crashes = 1;
      coverage;
    }
  in
  let seen = Hashtbl.create 4096 in
  let note (tr : Sim.Trace.t) =
    Array.iter (fun id -> Hashtbl.replace seen id ()) tr.Sim.Trace.init_ids;
    Array.iter
      (Array.iter (fun (s : Sim.Trace.step) ->
           Hashtbl.replace seen s.Sim.Trace.state_id ()))
      tr.Sim.Trace.steps
  in
  ignore
    (FuzzK2.run
       ~on_trial:(fun _ run -> note run.Sim.Run.trace)
       cfg ~seed:7 ~trials:400);
  Metrics.gauge_set g_fuzz_distinct (Hashtbl.length seen)

(* time-to-violation pair: kset-flp at n=4, L=2 breaks 1-agreement
   only on near-partition schedules, so the subject's ns_per_run IS
   the wall-clock cost of finding one violation — blind search needs
   trial 37 950 on this seed where the greybox campaign reaches trial
   2 742 (the margin CI pins in trial counts; this pair prices it in
   seconds, shrinking included) *)
let bench_fuzz_violation coverage () =
  let cfg =
    { (Sim.Fuzz.default_config ~k:1 ~n:4 ()) with Sim.Fuzz.coverage = coverage }
  in
  match FuzzK2.run cfg ~seed:3 ~trials:50_000 with
  | Sim.Fuzz.Violation_found _ -> ()
  | _ -> failwith "bench: kset-flp n=4 violation subject stayed clean"

(* campaign-daemon subject: a fresh campaign directory per run holding
   a small batch of probe jobs, two of which fail once and retry, run
   to completion by Daemon.serve in exit-when-idle mode.  Every state
   transition is a Durable atomic rewrite, so ns_per_run prices the
   whole queue contract — submit, worker spawn, backoff, finalize —
   fsync'd durability included.  The JSON writer derives jobs_per_sec
   from the svc.jobs.done delta; svc.jobs.retried rides along in the
   counters as the retry count. *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let bench_serve_throughput () =
  let dir = Filename.temp_file "ksa_bench_serve" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store =
        match Ksa_svc.Jobstore.open_dir ~dir with
        | Ok t -> t
        | Error e -> failwith ("bench: " ^ e)
      in
      for i = 1 to 8 do
        let fail = if i mod 4 = 0 then 1 else 0 in
        match
          Ksa_svc.Jobstore.submit store
            (Ksa_svc.Task.Probe { Ksa_svc.Task.p_fail = fail; p_spin = 0. })
        with
        | Ok _ -> ()
        | Error e -> failwith ("bench: " ^ e)
      done;
      let cfg =
        {
          (Ksa_svc.Daemon.default_cfg ~dir) with
          Ksa_svc.Daemon.exit_when_idle = true;
          retry =
            {
              Ksa_prim.Backoff.base = 0.0005;
              cap = 0.001;
              multiplier = 2.0;
              jitter = 0.0;
            };
        }
      in
      if Ksa_svc.Daemon.serve cfg <> 0 then
        failwith "bench: serve exited non-zero")

let scaling_domains = [ 1; 2; 4; 8 ]
let scaling_subject d = Printf.sprintf "scaling:crash-explorer-n3-d%d" d

(* One (name, thunk) pair per subject: bechamel times the thunk, and
   in [--json] mode a single extra invocation between two
   Metrics.snapshot calls yields the per-run counter deltas that go
   into BENCH_*.json next to the timing. *)
let subjects =
  [
    ("e1:theorem2-screening", bench_e1_screening);
    ("e2:protocol-run-n8", bench_e2_protocol_run);
    ("e2:border-pasting-n6", bench_e2_border_pasting);
    ("e3:protocol-run-n24", bench_e3_scale_n24);
    ("e4:source-components-n400", bench_e4_source_components);
    ("e5:lemma12-synod-n5", bench_e5_lemma12_synod);
    ("e6:coverage-sweep-n64", bench_e6_coverage);
    ("e7:history-validation", bench_e7_history_validation);
    ("e8:screen-naive-min", bench_e8_screen_naive);
    ("e9:independence-check", bench_e9_independence);
    ("e10:ho-uniform-voting-n8", bench_e10_ho_uniform_voting);
    ("e12:crash-explorer-n3", bench_e12_crash_explorer);
    ("explore:crash-n3-checkpointed", bench_e12_crash_explorer_checkpointed);
    ("e12:crash-explorer-par-n3", bench_e12_crash_explorer_par);
    ("model:byzantine-explorer-n3", bench_byzantine_explorer);
    ("model:mobile-explorer-n3", bench_mobile_explorer);
  ]
  @ List.map
      (fun d -> (scaling_subject d, bench_crash_explorer_scaling d))
      scaling_domains
  @ [
    ("reduction:crash-n3-none", bench_reduction_crash_n3 Sim.Canon.No_reduction);
    ("reduction:crash-n3-sym", bench_reduction_crash_n3 Sim.Canon.Symmetry);
    ("reduction:crash-n4-sym", bench_reduction_crash_n4);
    ("e13:abd-torture-n4", bench_e13_abd_torture);
    ("theorem2:end-to-end-n6", bench_theorem2_demonstrate);
    ("ablation:explorer-exhaustive-n3", bench_ablation_explorer_n3);
    ("ablation:explorer-exhaustive-n4", bench_ablation_explorer_n4);
    ("ablation:explorer-par-n4", bench_ablation_explorer_par_n4);
    ("ablation:engine-throughput-n32", bench_ablation_engine_throughput);
    ("ablation:scc-path-50k", bench_ablation_scc_50k);
    ("ablation:record-replay-n6", bench_ablation_replay);
    ("fuzz:trivial-shrink-n3", bench_fuzz_trivial_shrink);
    ("fuzz:kset-flp-clean-n3", bench_fuzz_kset_clean);
    ("fuzz:blind-kset-flp-n3", bench_fuzz_kset_modes false);
    ("fuzz:coverage-kset-flp-n3", bench_fuzz_kset_modes true);
    ("fuzz:blind-violation-n4", bench_fuzz_violation false);
    ("fuzz:coverage-violation-n4", bench_fuzz_violation true);
    ("serve:throughput-smoke", bench_serve_throughput);
    ("screen:section6-n4", bench_screen_section6_n4);
    ("indist:for-all-n6", bench_indist_for_all_n6);
  ]

let tests =
  Test.make_grouped ~name:"ksa" ~fmt:"%s/%s"
    (List.map
       (fun (name, fn) -> Test.make ~name (Staged.stage fn))
       subjects)

(* One extra run per subject, bracketed by metric snapshots: the
   non-zero deltas are what one invocation of the subject costs in
   events (configs admitted, memo hits, sim steps, ...).  The registry
   is reset immediately before each subject's bracketed run — gauges
   like explore.configs_visited are {e set}, not accumulated, so a
   stale value left by an earlier subject would otherwise leak into
   [before] and emit a nonsensical negative delta.  After the reset
   every delta is a cost and must be non-negative; a violation is a
   harness bug, so it fails the bench run loudly. *)
let counter_deltas () =
  List.map
    (fun (name, fn) ->
      Metrics.reset ();
      let before = Metrics.snapshot () in
      fn ();
      let after = Metrics.snapshot () in
      let delta =
        List.filter (fun (_, v) -> v <> 0) (Metrics.delta ~before ~after)
      in
      List.iter
        (fun (k, v) ->
          if v < 0 then (
            Format.eprintf "bench: negative counter delta %s = %d for %s@." k v
              name;
            exit 1))
        delta;
      ("ksa/" ^ name, delta))
    subjects

(* The commit being measured, suffixed "-dirty" when the working tree
   differs from it, or "unknown" outside a git checkout. *)
let git_rev () =
  match
    Unix.open_process_in
      "git describe --always --dirty --exclude '*' 2>/dev/null"
  with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let out = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when out <> "" -> out
      | _ -> "unknown")

(* Machine-readable perf trajectory: benchmark name -> ns/run plus
   the counter deltas of one run, one JSON object, written next to
   the cwd so successive PRs can diff it.  A leading "_meta" entry
   records the machine and build (cores, OCaml version, git rev).
   Explorer rows (those with explore.* counters) carry truncated,
   whether the run stopped at its config budget.  scaling:* rows also
   carry speedup_vs_seq, the sequential e12 subject's ns/run over
   theirs (null when the row's domains exceed the cores), reduction:*
   rows carry reduction_ratio, unreduced configs admitted over
   theirs, the fuzz blind/coverage pair carries
   distinct_states_per_sec, the campaign's distinct interned state
   ids over its wall-clock seconds, and serve:* rows carry
   jobs_per_sec, the daemon batch's completed jobs over its
   wall-clock seconds. *)
let write_bench_json ~path ~git_rev rows =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"_meta\": {\n    \"nproc\": %d,\n    \"ocaml\": %S,\n    \"git_rev\": %S\n  }%s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version git_rev
    (if rows = [] then "" else ",");
  let total = List.length rows in
  List.iteri
    (fun i (name, ns, counters, truncated, speedup, ratio, dsps, jps) ->
      Printf.fprintf oc "  %S: {\n    \"ns_per_run\": %s" name
        (if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns);
      (match truncated with
      | Some t -> Printf.fprintf oc ",\n    \"truncated\": %b" t
      | None -> ());
      (match speedup with
      | Some None -> output_string oc ",\n    \"speedup_vs_seq\": null"
      | Some (Some s) when not (Float.is_nan s) ->
          Printf.fprintf oc ",\n    \"speedup_vs_seq\": %.3f" s
      | _ -> ());
      (match ratio with
      | Some r when not (Float.is_nan r) ->
          Printf.fprintf oc ",\n    \"reduction_ratio\": %.3f" r
      | _ -> ());
      (match dsps with
      | Some d when not (Float.is_nan d) ->
          Printf.fprintf oc ",\n    \"distinct_states_per_sec\": %.1f" d
      | _ -> ());
      (match jps with
      | Some j when not (Float.is_nan j) ->
          Printf.fprintf oc ",\n    \"jobs_per_sec\": %.1f" j
      | _ -> ());
      (match counters with
      | [] -> ()
      | counters ->
          output_string oc ",\n    \"counters\": {";
          let nc = List.length counters in
          List.iteri
            (fun j (k, v) ->
              Printf.fprintf oc "\n      %S: %d%s" k v
                (if j = nc - 1 then "" else ","))
            counters;
          output_string oc "\n    }");
      Printf.fprintf oc "\n  }%s\n" (if i = total - 1 then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc;
  Format.printf "wrote %s (%d subjects)@." path total

let run_benchmarks ~json () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "@.%-44s %16s@." "benchmark" "time/run";
  Format.printf "%s@." (String.make 62 '-');
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> t
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
  in
  let rows = List.sort compare rows in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f  s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Format.printf "%-44s %16s@." name pretty)
    rows;
  if json then begin
    let deltas = counter_deltas () in
    let has name sub =
      let ls = String.length sub and ln = String.length name in
      let rec at i = i + ls <= ln && (String.sub name i ls = sub || at (i + 1)) in
      at 0
    in
    let seq_ns =
      Option.value ~default:nan
        (List.assoc_opt "ksa/e12:crash-explorer-n3" rows)
    in
    let admitted_of name =
      Option.bind (List.assoc_opt name deltas)
        (List.assoc_opt "explore.admitted")
    in
    (* reduction_ratio = unreduced admitted / reduced admitted on the
       same space.  The n=3 baseline comes from the family's own
       unreduced subject; the unreduced n=4 space exceeds the default
       300k-config budget (it is never run to completion anywhere), so
       its ratio is the lower bound budget/admitted. *)
    let reduction_ratio name =
      if not (has name "reduction:") then None
      else
        match admitted_of name with
        | None | Some 0 -> None
        | Some own ->
            let baseline =
              if has name "crash-n3" then
                Option.map float_of_int
                  (admitted_of "ksa/reduction:crash-n3-none")
              else if has name "crash-n4" then Some 300_000.
              else None
            in
            Option.map (fun b -> b /. float_of_int own) baseline
    in
    let distinct_per_sec name ns =
      if not (has name "fuzz:blind-" || has name "fuzz:coverage-") then None
      else
        match
          Option.bind (List.assoc_opt name deltas)
            (List.assoc_opt "fuzz.bench.distinct_ids")
        with
        | None | Some 0 -> None
        | Some ids ->
            if Float.is_nan ns then None
            else Some (float_of_int ids /. (ns /. 1e9))
    in
    let jobs_per_sec name ns =
      if not (has name "serve:") then None
      else
        match
          Option.bind (List.assoc_opt name deltas)
            (List.assoc_opt "svc.jobs.done")
        with
        | None | Some 0 -> None
        | Some jobs ->
            if Float.is_nan ns then None
            else Some (float_of_int jobs /. (ns /. 1e9))
    in
    let rows =
      List.map
        (fun (name, ns) ->
          let counters =
            Option.value ~default:[] (List.assoc_opt name deltas)
          in
          let truncated =
            if
              List.exists
                (fun (k, _) -> String.starts_with ~prefix:"explore." k)
                counters
            then
              Some
                (Option.value ~default:0
                   (List.assoc_opt "explore.budget_exhausted" counters)
                > 0)
            else None
          in
          (* a speedup is only claimed when domains <= cores *)
          let speedup =
            List.find_map
              (fun d ->
                if name <> "ksa/" ^ scaling_subject d then None
                else if d <= Domain.recommended_domain_count () then
                  Some (Some (seq_ns /. ns))
                else Some None)
              scaling_domains
          in
          ( name,
            ns,
            counters,
            truncated,
            speedup,
            reduction_ratio name,
            distinct_per_sec name ns,
            jobs_per_sec name ns ))
        rows
    in
    let is_trace_subject (name, _, _, _, _, _, _, _) =
      has name "screen:" || has name "indist:"
    in
    let screen_rows, explore_rows = List.partition is_trace_subject rows in
    let git_rev = git_rev () in
    write_bench_json ~path:"BENCH_explore.json" ~git_rev explore_rows;
    write_bench_json ~path:"BENCH_screen.json" ~git_rev screen_rows
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  match List.filter (fun a -> a <> "--json" && a <> "--") args with
  | [] | [ "bench" ] -> run_benchmarks ~json ()
  | m :: _ ->
      Format.eprintf "usage: main.exe [bench] [--json]@.";
      Format.eprintf "unknown mode %S@." m;
      exit 2
