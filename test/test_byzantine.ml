(* Conformance of the Byzantine and mobile fault models
   (Ksa_sim.Fault_model) against the crash substrate they extend.

   Three lines of evidence, mirroring the paper's separation between
   failure classes:

   - differential parity: at budget 0 both new models are the crash
     model — verdicts, stats and reachable decision values must be
     bit-identical to the crash explorer on every n=3 subject,
     sequentially and in parallel, across every reduction mode; and
     an algorithm with an empty forge pool makes [Byzantine t]
     degenerate to [Crash] at equal budget;

   - strict separation: at (n=3, k=1, t=1) and (n=3, k=2, t=1) the
     crash adversary cannot violate k-agreement of kset_flp but the
     Byzantine one can — the acceptance criterion that Byzantine is
     strictly less solvable than crash;

   - budget discipline: fuzzed Byzantine trials never corrupt more
     than t senders and only forge messages of corrupted senders;
     mobile trials never crash anybody and never forge; the mobile
     faulty set is a pure per-round function.  Forged schedules
     round-trip through Trace_io under their model tag and are
     refused under crash semantics; fuzz campaigns under the new
     models stay bit-reproducible, seq/par-identical and
     kill/resume-safe, and a checkpoint written under one model is
     refused (fresh start) under another. *)

module Sim = Ksa_sim
module Ho = Ksa_ho
module Canon = Sim.Canon
module FP = Sim.Failure_pattern
module FM = Sim.Fault_model
module Fuzz = Sim.Fuzz
module Trace_io = Sim.Trace_io
module Checkpoint = Sim.Checkpoint

module K2 = Ksa_algo.Kset_flp.Make (struct
  let l = 2
end)

module N2 = Ksa_algo.Naive_min.Make (struct
  let wait_for = 2
end)

module FK2 = Fuzz.Make (K2)

let distinct = Sim.Value.distinct_inputs
let no_check _ = None
let qcheck = QCheck_alcotest.to_alcotest

let k_check k = Sim.Kset_spec.k_agreement ~k

let subjects =
  [
    ("kset_flp(l=2)", (module K2 : Sim.Algorithm.S));
    ("trivial", (module Ksa_algo.Trivial.A : Sim.Algorithm.S));
    ("naive_min(wait=2)", (module N2 : Sim.Algorithm.S));
  ]

(* verdict plus the stats that must agree bit-for-bit when two
   explorations enumerate the same node graph *)
let outcome_fingerprint (o : Sim.Explorer.resilient_outcome) =
  let stats (s : Sim.Explorer.stats) =
    Printf.sprintf "visited=%d terminal=%d exhausted=%b"
      s.Sim.Explorer.configs_visited s.Sim.Explorer.terminal_runs
      s.Sim.Explorer.budget_exhausted
  in
  match o with
  | Sim.Explorer.All_paths_decide s -> "all-paths-decide " ^ stats s
  | Sim.Explorer.Safety_violation { reason; _ } -> "violation:" ^ reason
  | Sim.Explorer.Stuck { crashed; undecided_correct; stats = s } ->
      Printf.sprintf "stuck:{%s}/{%s} %s"
        (String.concat "," (List.map string_of_int crashed))
        (String.concat "," (List.map string_of_int undecided_correct))
        (stats s)
  | Sim.Explorer.Indeterminate _ -> "indeterminate"

let all_modes =
  [ Canon.No_reduction; Canon.Symmetry ]

(* ---------- differential parity at budget 0 ---------- *)

(* [Byzantine 0] corrupts nobody and [Mobile 0] omits nothing: both
   must produce the very node graph of the crash explorer at budget
   0, so verdict, configs_visited, terminal_runs and the reachable
   decision values agree exactly — seq and par, every reduction. *)
let test_budget0_parity () =
  List.iter
    (fun (name, (module A : Sim.Algorithm.S)) ->
      let module Ex = Sim.Explorer.Make (A) in
      List.iter
        (fun reduction ->
          let tag model driver =
            Printf.sprintf "%s/%s: %s %s" name
              (Canon.reduction_to_string reduction)
              (FM.to_string model) driver
          in
          let explore ?model ?domains () =
            let o =
              match domains with
              | None ->
                  Ex.explore_with_crashes ~reduction ?model ~n:3
                    ~inputs:(distinct 3) ~crash_budget:0 ~check:no_check ()
              | Some d ->
                  Ex.explore_with_crashes_par ~reduction ?model ~domains:d
                    ~n:3 ~inputs:(distinct 3) ~crash_budget:0 ~check:no_check
                    ()
            in
            outcome_fingerprint o
          in
          let baseline = explore () in
          Alcotest.(check bool)
            (name ^ ": crash baseline classified")
            true
            (baseline <> "indeterminate");
          let base_values =
            List.sort Sim.Value.compare
              (Ex.reachable_decision_values ~reduction ~n:3
                 ~inputs:(distinct 3) ~crash_budget:0 ())
          in
          List.iter
            (fun model ->
              Alcotest.(check string)
                (tag model "seq")
                baseline
                (explore ~model ());
              Alcotest.(check string)
                (tag model "par")
                baseline
                (explore ~model ~domains:2 ());
              Alcotest.(check bool)
                (tag model "decision values")
                true
                (base_values
                = List.sort Sim.Value.compare
                    (Ex.reachable_decision_values ~reduction ~model ~n:3
                       ~inputs:(distinct 3) ~crash_budget:0 ()));
              Alcotest.(check bool)
                (tag model "decision values par")
                true
                (base_values
                = List.sort Sim.Value.compare
                    (Test_util.decision_values_par (fun ~check ->
                         Ex.explore_with_crashes_par ~reduction ~model
                           ~domains:2 ~n:3 ~inputs:(distinct 3)
                           ~crash_budget:0 ~check ()))))
            [ FM.byzantine 0; FM.mobile 0 ])
        all_modes)
    subjects

(* an empty forge pool (trivial never accepts a forged payload) makes
   the Byzantine explorer the crash explorer at equal budget *)
let test_empty_forge_pool_degenerates () =
  let module Ex = Sim.Explorer.Make (Ksa_algo.Trivial.A) in
  let run ?model () =
    outcome_fingerprint
      (Ex.explore_with_crashes ?model ~n:3 ~inputs:(distinct 3)
         ~crash_budget:1 ~check:no_check ())
  in
  Alcotest.(check string)
    "trivial: byzantine:1 = crash at budget 1" (run ())
    (run ~model:(FM.byzantine 1) ())

(* ---------- strict separation ---------- *)

(* the acceptance criterion: a (n, k, t) point where the crash
   adversary cannot break k-agreement but the Byzantine one can.
   kset_flp with l = n - t = 2 at n=3, t=1: under crashes the worst
   case is a stuck undecided process (FLP-style), never a safety
   violation; one corrupted sender forging Report payloads yields two
   (resp. three) distinct decisions, beating k=1 and k=2. *)
let test_byzantine_strictly_less_solvable () =
  let module Ex = Sim.Explorer.Make (K2) in
  List.iter
    (fun k ->
      let crash =
        Ex.explore_with_crashes ~n:3 ~inputs:(distinct 3) ~crash_budget:1
          ~check:(k_check k) ()
      in
      (match crash with
      | Sim.Explorer.Safety_violation { reason; _ } ->
          Alcotest.fail
            (Printf.sprintf "crash adversary broke k=%d: %s" k reason)
      | _ -> ());
      match
        Ex.explore_with_crashes ~model:(FM.byzantine 1) ~n:3
          ~inputs:(distinct 3) ~crash_budget:1 ~check:(k_check k) ()
      with
      | Sim.Explorer.Safety_violation { reason; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "k=%d: reason names the bound" k)
            true
            (String.length reason > 0)
      | o ->
          Alcotest.fail
            (Printf.sprintf "byzantine:1 did not break k=%d (got %s)" k
               (outcome_fingerprint o)))
    [ 1; 2 ]

(* ---------- fault-budget discipline (qcheck) ---------- *)

let prop_byzantine_budget =
  QCheck.Test.make ~count:40
    ~name:"byzantine fuzz: ≤t corrupted senders, forges only theirs"
    QCheck.(
      triple (int_range 0 2) (int_range 0 1_000) (int_range 0 25))
    (fun (t, seed, i) ->
      let cfg =
        { (Fuzz.default_config ~k:1 ~n:3 ()) with Fuzz.model = FM.byzantine t }
      in
      let pattern, run = FK2.trial cfg ~seed i in
      let faulty = FP.faulty pattern in
      List.length faulty <= t
      && List.for_all
           (fun (d : Sim.Replay.step_desc) ->
             List.for_all
               (fun (dl : Sim.Replay.delivery) ->
                 dl.Sim.Replay.forged = None
                 || List.mem dl.Sim.Replay.src faulty)
               d.Sim.Replay.deliver)
           (Trace_io.schedule_of_run run))

let prop_mobile_trial_crash_free =
  QCheck.Test.make ~count:40
    ~name:"mobile fuzz: nobody crashes, nothing is forged"
    QCheck.(
      triple (int_range 0 2) (int_range 0 1_000) (int_range 0 25))
    (fun (t, seed, i) ->
      let cfg =
        { (Fuzz.default_config ~k:1 ~n:3 ()) with Fuzz.model = FM.mobile t }
      in
      let pattern, run = FK2.trial cfg ~seed i in
      FP.equal pattern (FP.none ~n:3) && run.Sim.Run.forges = [])

let prop_mobile_faulty_pure =
  QCheck.Test.make ~count:200
    ~name:"mobile faulty set: pure, sorted, ≤t, valid pids"
    QCheck.(
      quad (int_range 0 10_000) (int_range 2 5) (int_range 0 2)
        (int_range 0 20))
    (fun (seed, n, t, round) ->
      let f = FM.mobile_faulty ~seed ~n ~t ~round in
      f = FM.mobile_faulty ~seed ~n ~t ~round
      && List.length f <= t
      && f = List.sort_uniq compare f
      && List.for_all (fun p -> p >= 0 && p < n) f)

(* the faulty set is a function of the round alone — it can only
   change at round boundaries by construction — and it does change:
   mobility is resampling, not a fixed crash set *)
let test_mobile_set_actually_moves () =
  let sets =
    List.init 41 (fun round -> FM.mobile_faulty ~seed:5 ~n:3 ~t:1 ~round)
  in
  Alcotest.(check bool)
    "≥2 distinct faulty sets over 41 rounds" true
    (List.length (List.sort_uniq compare sets) >= 2);
  (* transient: some victim is faulty in one round, healthy later *)
  let victim_returns =
    List.exists
      (fun p ->
        let faulty_rounds =
          List.filteri (fun _ s -> List.mem p s) sets |> List.length
        in
        faulty_rounds > 0 && faulty_rounds < List.length sets)
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "faulty processes recover" true victim_returns;
  List.iteri
    (fun round _ ->
      Alcotest.(check bool)
        "t=0 never faults" true
        (FM.mobile_faulty ~seed:5 ~n:3 ~t:0 ~round = []))
    sets

(* ---------- fuzz campaigns under the new models ---------- *)

let byz_cfg =
  { (Fuzz.default_config ~k:1 ~n:3 ()) with Fuzz.model = FM.byzantine 1 }

let mobile_cfg =
  { (Fuzz.default_config ~k:1 ~n:3 ()) with Fuzz.model = FM.mobile 1 }

let expect_violation = function
  | Fuzz.Violation_found v -> v
  | Fuzz.Clean _ -> Alcotest.fail "expected a violation, got clean"
  | Fuzz.Budget_exhausted _ ->
      Alcotest.fail "expected a violation, got budget-exhausted"

let check_violation_equal msg (a : Fuzz.violation) (b : Fuzz.violation) =
  Alcotest.(check int) (msg ^ ": trial") a.Fuzz.trial b.Fuzz.trial;
  Alcotest.(check string) (msg ^ ": reason") a.Fuzz.reason b.Fuzz.reason;
  Alcotest.(check bool)
    (msg ^ ": pattern") true
    (FP.equal a.Fuzz.pattern b.Fuzz.pattern);
  Alcotest.(check bool)
    (msg ^ ": schedule") true
    (a.Fuzz.schedule = b.Fuzz.schedule);
  Alcotest.(check bool) (msg ^ ": shrunk") true (a.Fuzz.shrunk = b.Fuzz.shrunk)

let has_forged descs =
  List.exists
    (fun (d : Sim.Replay.step_desc) ->
      List.exists
        (fun (dl : Sim.Replay.delivery) -> dl.Sim.Replay.forged <> None)
        d.Sim.Replay.deliver)
    descs

let byz_trials = 2_000

let test_byz_fuzz_bit_reproducible () =
  let a = expect_violation (FK2.run byz_cfg ~seed:7 ~trials:byz_trials) in
  let b = expect_violation (FK2.run byz_cfg ~seed:7 ~trials:byz_trials) in
  check_violation_equal "byzantine same seed" a b;
  (* kset_flp(l=2) is crash-safe at k=1, so the violation must lean on
     a forged payload *)
  Alcotest.(check bool)
    "violating schedule carries a forge" true
    (has_forged a.Fuzz.schedule)

(* A Byzantine termination counterexample replays: a forgery is part
   of the step that delivers it, so the schedule's replay takes as many
   steps of the budget as the run did and runs it out again. *)
let test_byz_termination_replays () =
  let module K1 = Ksa_algo.Kset_flp.Make (struct
    let l = 1
  end) in
  let module F = Fuzz.Make (K1) in
  let cfg =
    {
      (Fuzz.default_config ~k:3 ~n:3 ()) with
      Fuzz.model = FM.byzantine 2;
      max_steps = 60;
      properties = [ Fuzz.K_agreement 3; Fuzz.Validity; Fuzz.Termination ];
    }
  in
  let v = expect_violation (F.run cfg ~seed:9 ~trials:300) in
  Alcotest.(check string) "property" "termination" v.Fuzz.property;
  Alcotest.(check bool) "the schedule replays to a violation" true
    v.Fuzz.replays;
  match F.replay_strict ~pattern:v.Fuzz.pattern cfg v.Fuzz.shrunk with
  | Ok run ->
      Alcotest.(check bool) "the shrunk replay violates" true
        (F.check_run cfg run <> None)
  | Error why -> Alcotest.fail why

let test_byz_fuzz_seq_par_parity () =
  let seq = expect_violation (FK2.run byz_cfg ~seed:7 ~trials:byz_trials) in
  let par =
    expect_violation
      (FK2.run_par ~domains:2 byz_cfg ~seed:7 ~trials:byz_trials)
  in
  check_violation_equal "byzantine seq vs par" seq par

let test_mobile_fuzz_clean_parity () =
  (* transient omission can starve kset_flp but never break safety *)
  let seq = FK2.run mobile_cfg ~seed:7 ~trials:200 in
  let par = FK2.run_par ~domains:2 mobile_cfg ~seed:7 ~trials:200 in
  match (seq, par) with
  | Fuzz.Clean { trials = a }, Fuzz.Clean { trials = b } ->
      Alcotest.(check int) "mobile seq clean" 200 a;
      Alcotest.(check int) "mobile par clean" 200 b
  | _ -> Alcotest.fail "expected clean mobile campaigns"

(* checkpoint plumbing borrowed from test_checkpoint.ml *)
let tmp_path suffix =
  let path = Filename.temp_file "ksa_byz" suffix in
  Sys.remove path;
  path

let with_tmp suffix f =
  let path = tmp_path suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let ok_or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let poll_interrupt n =
  let polls = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add polls 1 >= n

let sink ~path ~kind =
  {
    Checkpoint.path;
    kind;
    fingerprint = "test";
    policy = Checkpoint.default_policy;
  }

let load_restored path =
  let t = ok_or_fail (Checkpoint.load ~path) in
  ok_or_fail (Checkpoint.restore_interners t);
  t

let test_byz_fuzz_kill_resume () =
  let baseline = FK2.run byz_cfg ~seed:7 ~trials:byz_trials in
  let v = expect_violation baseline in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"fuzz")
          ~interrupt:(poll_interrupt 50) ()
      in
      (match FK2.run ~ckpt byz_cfg ~seed:7 ~trials:byz_trials with
      | Fuzz.Budget_exhausted { trials = t } ->
          Alcotest.(check bool) "cut before the violation" true
            (t > 0 && t < v.Fuzz.trial)
      | _ -> Alcotest.fail "interrupted campaign should be Budget_exhausted");
      let t = load_restored path in
      let resumed =
        FK2.run ~resume_payload:(Checkpoint.payload t) byz_cfg ~seed:7
          ~trials:byz_trials
      in
      check_violation_equal "byzantine kill/resume" v
        (expect_violation resumed))

(* a checkpoint written under one model must not silently steer a
   campaign under another: the fuzzer warns and starts fresh, so the
   outcome equals the no-resume baseline *)
let test_fuzz_model_mismatch_starts_fresh () =
  let crash_cfg = Fuzz.default_config ~k:1 ~n:3 () in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"fuzz")
          ~interrupt:(poll_interrupt 50) ()
      in
      (match FK2.run ~ckpt crash_cfg ~seed:7 ~trials:500 with
      | Fuzz.Budget_exhausted _ -> ()
      | _ -> Alcotest.fail "interrupted crash campaign expected");
      let t = load_restored path in
      let fresh = expect_violation (FK2.run byz_cfg ~seed:7 ~trials:byz_trials) in
      let resumed =
        expect_violation
          (FK2.run ~resume_payload:(Checkpoint.payload t) byz_cfg ~seed:7
             ~trials:byz_trials)
      in
      check_violation_equal "cross-model resume = fresh campaign" fresh resumed)

let test_explorer_model_mismatch_starts_fresh () =
  let module Ex = Sim.Explorer.Make (K2) in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"explore-crash")
          ~interrupt:(poll_interrupt 500) ()
      in
      (match
         Ex.explore_with_crashes ~ckpt ~n:3 ~inputs:(distinct 3)
           ~crash_budget:1 ~check:(k_check 1) ()
       with
      | Sim.Explorer.Indeterminate _ -> ()
      | o ->
          Alcotest.fail
            ("interrupted crash exploration expected, got "
            ^ outcome_fingerprint o));
      let t = load_restored path in
      let fresh =
        Ex.explore_with_crashes ~model:(FM.byzantine 1) ~n:3
          ~inputs:(distinct 3) ~crash_budget:1 ~check:(k_check 1) ()
      in
      let resumed =
        Ex.explore_with_crashes ~model:(FM.byzantine 1)
          ~resume:(Checkpoint.payload t) ~n:3 ~inputs:(distinct 3)
          ~crash_budget:1 ~check:(k_check 1) ()
      in
      Alcotest.(check string)
        "crash checkpoint refused under byzantine"
        (outcome_fingerprint fresh)
        (outcome_fingerprint resumed))

(* ---------- Trace_io: forged payloads and model tags ---------- *)

let forged_descs =
  [
    { Sim.Replay.pid = 0; deliver = [ { Sim.Replay.src = 1; seq = 1; forged = Some 2 } ] };
    {
      Sim.Replay.pid = 2;
      deliver =
        [
          { Sim.Replay.src = 0; seq = 1; forged = None };
          { Sim.Replay.src = 1; seq = 2; forged = Some 0 };
        ];
    };
  ]

let plain_descs =
  List.map
    (fun (d : Sim.Replay.step_desc) ->
      {
        d with
        Sim.Replay.deliver =
          List.map
            (fun (dl : Sim.Replay.delivery) ->
              { dl with Sim.Replay.forged = None })
            d.Sim.Replay.deliver;
      })
    forged_descs

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_forged_roundtrip () =
  let s = Trace_io.schedule_to_string ~model:(FM.byzantine 1) forged_descs in
  Alcotest.(check bool)
    "model tag present" true
    (contains ~sub:"# model: byzantine:1" s);
  (match Trace_io.schedule_of_string s with
  | Ok descs ->
      Alcotest.(check bool) "descs survive" true (descs = forged_descs)
  | Error e -> Alcotest.fail e);
  (match Trace_io.schedule_model_of_string s with
  | Ok m -> Alcotest.(check bool) "model survives" true (FM.equal m (FM.byzantine 1))
  | Error e -> Alcotest.fail e);
  (* file-level round-trip under the matching expectation *)
  with_tmp ".sched" (fun path ->
      ok_or_fail (Trace_io.save_schedule ~model:(FM.byzantine 1) ~path forged_descs);
      let loaded =
        ok_or_fail (Trace_io.load_schedule ~expect:(FM.byzantine 1) ~path ())
      in
      Alcotest.(check bool) "file round-trip" true (loaded = forged_descs))

let test_forged_under_crash_rejected () =
  (* a schedule carrying forged payloads but declaring no model must
     be refused, not replayed with silently-dropped forges *)
  let s = Trace_io.schedule_to_string forged_descs in
  Alcotest.(check bool) "no model line" true (not (contains ~sub:"# model" s));
  match Trace_io.schedule_of_string s with
  | Ok _ -> Alcotest.fail "forged schedule accepted under crash semantics"
  | Error e ->
      Alcotest.(check bool)
        ("error names the forge: " ^ e)
        true
        (contains ~sub:"forged" e)

let test_cross_model_rejected () =
  let s = Trace_io.schedule_to_string ~model:(FM.byzantine 1) forged_descs in
  (match Trace_io.schedule_of_string ~expect:FM.crash s with
  | Ok _ -> Alcotest.fail "byzantine schedule accepted under crash"
  | Error e ->
      Alcotest.(check bool)
        ("error tells the flag to pass: " ^ e)
        true
        (contains ~sub:"--model" e));
  (* and the mirrored direction, via the filesystem entry point *)
  with_tmp ".sched" (fun path ->
      ok_or_fail (Trace_io.save_schedule ~path plain_descs);
      match Trace_io.load_schedule ~expect:(FM.mobile 1) ~path () with
      | Ok _ -> Alcotest.fail "crash schedule accepted under mobile"
      | Error e ->
          Alcotest.(check bool)
            ("cross-model error: " ^ e)
            true
            (contains ~sub:"model" e))

let test_crash_format_unchanged () =
  (* crash schedules must stay byte-identical to the pre-model format:
     no [# model:] line, and an explicit [~model:Crash] changes nothing *)
  let a = Trace_io.schedule_to_string plain_descs in
  let b = Trace_io.schedule_to_string ~model:FM.crash plain_descs in
  Alcotest.(check string) "explicit crash = default" a b;
  Alcotest.(check bool) "no model line" true (not (contains ~sub:"# model" a));
  match Trace_io.schedule_model_of_string a with
  | Ok m -> Alcotest.(check bool) "untagged = crash" true (FM.equal m FM.crash)
  | Error e -> Alcotest.fail e

(* ---------- HO substrate ---------- *)

let test_ho_mobile_assignment () =
  let n = 3 and t = 1 and seed = 5 in
  let a = Ho.Assignment.mobile ~n ~t ~seed in
  let universe = Sim.Pid.universe n in
  let ho_sets =
    List.init 41 (fun round -> a.Ho.Assignment.ho ~round ~me:0)
  in
  List.iter
    (fun ho ->
      Alcotest.(check bool)
        "≥ n-t processes heard" true
        (List.length ho >= n - t))
    ho_sets;
  Alcotest.(check bool)
    "HO sets move across rounds" true
    (List.length (List.sort_uniq compare ho_sets) >= 2);
  (* per-round set is shared by all receivers: mobility is a property
     of the senders, not of any receiver's link *)
  List.iteri
    (fun round ho ->
      Alcotest.(check bool)
        "same HO set for every receiver" true
        (ho = a.Ho.Assignment.ho ~round ~me:1
        && ho = a.Ho.Assignment.ho ~round ~me:2))
    ho_sets;
  let a0 = Ho.Assignment.mobile ~n ~t:0 ~seed in
  List.iteri
    (fun round _ ->
      Alcotest.(check bool)
        "t=0 is the complete assignment" true
        (a0.Ho.Assignment.ho ~round ~me:0 = universe))
    ho_sets

(* a minimal concrete HO algorithm so the test can build forged
   messages (Min_flood's message type is sealed behind
   Ho_algorithm.S): flood your estimate, adopt the minimum, decide at
   the end of round 2 *)
module Min2 = struct
  type state = Sim.Value.t
  type message = Est of Sim.Value.t

  let name = "test_min2"
  let init ~n:_ ~me:_ ~input = input
  let send st ~round:_ = Est st

  let transition st ~round ~received =
    let est =
      List.fold_left (fun acc (_, Est v) -> min acc v) st received
    in
    (est, if round >= 2 then Some est else None)

  let pp_state ppf st = Sim.Value.pp ppf st
  let pp_message ppf (Est v) = Format.fprintf ppf "Est %a" Sim.Value.pp v
end

module EMin2 = Ho.Engine.Make (Min2)

let test_ho_equivocation_splits_decisions () =
  let n = 3 and inputs = distinct 3 in
  let assignment = Ho.Assignment.complete ~n in
  let honest = EMin2.run ~n ~inputs ~assignment ~rounds:2 () in
  Alcotest.(check int)
    "honest min-flood reaches consensus" 1
    (EMin2.distinct_decisions honest);
  (* one corrupted sender (t=1) equivocates in the deciding round:
     each receiver is shown a different bogus minimum too late to
     re-flood it, so three processes decide three different values —
     Byzantine behaviour no crash pattern can produce here *)
  let corrupt ~round ~src ~dst (m : Min2.message) =
    if round = 2 && src = 0 && dst <> 0 then Min2.Est (-dst) else m
  in
  let byz = EMin2.run ~corrupt ~n ~inputs ~assignment ~rounds:2 () in
  Alcotest.(check int)
    "equivocation splits the decisions" 3
    (EMin2.distinct_decisions byz);
  (* the identity hook is the old engine, bit for bit *)
  let id_hook = EMin2.run ~corrupt:(fun ~round:_ ~src:_ ~dst:_ m -> m) ~n ~inputs ~assignment ~rounds:2 () in
  Alcotest.(check bool)
    "identity hook = no hook: decisions" true
    (id_hook.EMin2.decisions = honest.EMin2.decisions);
  Alcotest.(check bool)
    "identity hook = no hook: trace" true
    (id_hook.EMin2.trace = honest.EMin2.trace)

(* ---------- suites ---------- *)

let suites =
  [
    ( "byzantine.parity",
      [
        Alcotest.test_case "budget-0 models = crash explorer (all modes)"
          `Quick test_budget0_parity;
        Alcotest.test_case "empty forge pool degenerates to crash" `Quick
          test_empty_forge_pool_degenerates;
      ] );
    ( "byzantine.separation",
      [
        Alcotest.test_case "byzantine breaks k where crash cannot" `Quick
          test_byzantine_strictly_less_solvable;
      ] );
    ( "byzantine.budget",
      [
        qcheck prop_byzantine_budget;
        qcheck prop_mobile_trial_crash_free;
        qcheck prop_mobile_faulty_pure;
        Alcotest.test_case "mobile faulty set moves and recovers" `Quick
          test_mobile_set_actually_moves;
      ] );
    ( "byzantine.fuzz",
      [
        Alcotest.test_case "byzantine campaign bit-reproducible" `Quick
          test_byz_fuzz_bit_reproducible;
        Alcotest.test_case "byzantine seq/par parity" `Quick
          test_byz_fuzz_seq_par_parity;
        Alcotest.test_case "mobile clean parity" `Quick
          test_mobile_fuzz_clean_parity;
        Alcotest.test_case "byzantine kill/resume parity" `Quick
          test_byz_fuzz_kill_resume;
        Alcotest.test_case "fuzz model mismatch starts fresh" `Quick
          test_fuzz_model_mismatch_starts_fresh;
        Alcotest.test_case "explorer model mismatch starts fresh" `Quick
          test_explorer_model_mismatch_starts_fresh;
        Alcotest.test_case "byzantine termination counterexample replays"
          `Quick test_byz_termination_replays;
      ] );
    ( "byzantine.trace_io",
      [
        Alcotest.test_case "forged schedule round-trips under its model"
          `Quick test_forged_roundtrip;
        Alcotest.test_case "forged under crash rejected" `Quick
          test_forged_under_crash_rejected;
        Alcotest.test_case "cross-model replay rejected" `Quick
          test_cross_model_rejected;
        Alcotest.test_case "crash format byte-stable" `Quick
          test_crash_format_unchanged;
      ] );
    ( "byzantine.ho",
      [
        Alcotest.test_case "mobile assignment bounded and transient" `Quick
          test_ho_mobile_assignment;
        Alcotest.test_case "equivocation splits decisions" `Quick
          test_ho_equivocation_splits_decisions;
      ] );
  ]
