(* The schedule fuzzer.

   Determinism is the contract under test: trial i is a pure function
   of (config, root seed, i), so a campaign must be bit-reproducible,
   the sequential and parallel drivers must report the identical first
   violation and shrunk schedule, and every shrunk counterexample must
   re-violate under Replay after a Trace_io save/load round-trip.
   The differential suite checks the fuzzer is sound against the
   exhaustive explorer: a fair-weighted fuzz campaign never decides a
   value exploration cannot reach. *)

module Sim = Ksa_sim
module Fuzz = Sim.Fuzz

let distinct = Sim.Value.distinct_inputs

module FT = Fuzz.Make (Ksa_algo.Trivial.A)

module K2 = Ksa_algo.Kset_flp.Make (struct
  let l = 2
end)

module FK2 = Fuzz.Make (K2)

module K3 = Ksa_algo.Kset_flp.Make (struct
  let l = 3
end)

module FK3 = Fuzz.Make (K3)

let expect_violation = function
  | Fuzz.Violation_found v -> v
  | Fuzz.Clean _ -> Alcotest.fail "expected a violation, got clean"
  | Fuzz.Budget_exhausted _ ->
      Alcotest.fail "expected a violation, got budget-exhausted"

let check_violation_equal msg (a : Fuzz.violation) (b : Fuzz.violation) =
  Alcotest.(check int) (msg ^ ": trial") a.Fuzz.trial b.Fuzz.trial;
  Alcotest.(check string) (msg ^ ": property") a.Fuzz.property b.Fuzz.property;
  Alcotest.(check string) (msg ^ ": reason") a.Fuzz.reason b.Fuzz.reason;
  Alcotest.(check bool)
    (msg ^ ": pattern") true
    (Sim.Failure_pattern.equal a.Fuzz.pattern b.Fuzz.pattern);
  Alcotest.(check bool)
    (msg ^ ": schedule") true
    (a.Fuzz.schedule = b.Fuzz.schedule);
  Alcotest.(check bool) (msg ^ ": shrunk") true (a.Fuzz.shrunk = b.Fuzz.shrunk)

(* trivial decides its own input immediately: any two steps by
   distinct processes violate 1-agreement with distinct inputs *)
let trivial_cfg = Fuzz.default_config ~k:1 ~n:3 ()

let test_bit_reproducible () =
  let a = expect_violation (FT.run trivial_cfg ~seed:42 ~trials:50) in
  let b = expect_violation (FT.run trivial_cfg ~seed:42 ~trials:50) in
  check_violation_equal "same seed" a b;
  let c = expect_violation (FT.run trivial_cfg ~seed:43 ~trials:50) in
  (* different seed must at least give a different run object; the
     trial index may coincide *)
  Alcotest.(check bool) "different seed, different campaign" false
    (a.Fuzz.schedule = c.Fuzz.schedule && a.Fuzz.trial = c.Fuzz.trial
    && Sim.Failure_pattern.equal a.Fuzz.pattern c.Fuzz.pattern
    && a.Fuzz.run.Sim.Run.events = c.Fuzz.run.Sim.Run.events)

let test_seq_par_violation_parity () =
  let seq = expect_violation (FT.run trivial_cfg ~seed:42 ~trials:50) in
  let par = expect_violation (FT.run_par ~domains:2 trivial_cfg ~seed:42 ~trials:50) in
  check_violation_equal "seq vs par" seq par

let test_seq_par_clean_parity () =
  (* kset-flp with L=2 at n=3 can reach at most n/L = 1 decision:
     1-agreement and validity hold on every schedule *)
  let cfg =
    { (Fuzz.default_config ~k:1 ~n:3 ()) with Fuzz.max_crashes = 1 }
  in
  let seq = FK2.run cfg ~seed:7 ~trials:40 in
  let par = FK2.run_par ~domains:2 cfg ~seed:7 ~trials:40 in
  (match seq with
  | Fuzz.Clean { trials } -> Alcotest.(check int) "seq clean trials" 40 trials
  | _ -> Alcotest.fail "expected clean sequential campaign");
  match par with
  | Fuzz.Clean { trials } -> Alcotest.(check int) "par clean trials" 40 trials
  | _ -> Alcotest.fail "expected clean parallel campaign"

let test_trial_is_pure () =
  let cfg = { trivial_cfg with Fuzz.max_crashes = 1 } in
  let p1, r1 = FT.trial cfg ~seed:9 5 in
  let p2, r2 = FT.trial cfg ~seed:9 5 in
  Alcotest.(check bool) "same pattern" true (Sim.Failure_pattern.equal p1 p2);
  Alcotest.(check bool) "same events" true
    (r1.Sim.Run.events = r2.Sim.Run.events);
  Alcotest.(check bool) "same decisions" true
    (r1.Sim.Run.decisions = r2.Sim.Run.decisions)

let test_shrunk_one_minimal_and_roundtrips () =
  let cfg = Fuzz.default_config ~k:1 ~n:4 () in
  let module F = Fuzz.Make (Ksa_algo.Trivial.A) in
  let v = expect_violation (F.run cfg ~seed:3 ~trials:20) in
  (* for trivial, the minimal 1-agreement counterexample is exactly
     two steps by distinct processes *)
  Alcotest.(check int) "two steps" 2 (List.length v.Fuzz.shrunk);
  let pids = List.map (fun (d : Sim.Replay.step_desc) -> d.pid) v.Fuzz.shrunk in
  Alcotest.(check int) "distinct pids" 2
    (List.length (List.sort_uniq compare pids));
  (* the acceptance criterion: save/load round-trip, then replay, and
     the verdict must survive *)
  let path = Filename.temp_file "ksa_fuzz_cex" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Sim.Trace_io.save_schedule ~path v.Fuzz.shrunk with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let loaded =
        match Sim.Trace_io.load_schedule ~path () with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "round-trip preserves schedule" true
        (loaded = v.Fuzz.shrunk);
      let replayed = F.replay_schedule ~pattern:v.Fuzz.pattern cfg loaded in
      (match F.check_run cfg replayed with
      | Some (p, _) ->
          Alcotest.(check string) "same property violated"
            v.Fuzz.property (Fuzz.property_name p)
      | None -> Alcotest.fail "shrunk schedule no longer violates");
      (* 1-minimality: dropping any single step loses the violation *)
      List.iteri
        (fun i _ ->
          let without = List.filteri (fun j _ -> j <> i) v.Fuzz.shrunk in
          let run = F.replay_schedule ~pattern:v.Fuzz.pattern cfg without in
          match F.check_run cfg run with
          | Some _ ->
              Alcotest.failf "removing step %d still violates: not 1-minimal" i
          | None -> ())
        v.Fuzz.shrunk)

let test_full_schedule_also_reviolates () =
  let v = expect_violation (FT.run trivial_cfg ~seed:42 ~trials:50) in
  let run = FT.replay_schedule ~pattern:v.Fuzz.pattern trivial_cfg v.Fuzz.schedule in
  match FT.check_run trivial_cfg run with
  | Some (p, _) ->
      Alcotest.(check string) "same property" v.Fuzz.property
        (Fuzz.property_name p)
  | None -> Alcotest.fail "full schedule does not re-violate under replay"

(* fuzz soundness against exhaustive exploration: with fair-only
   weights on kset-flp at n=3, every value a fuzzed run decides must be
   reachable in the crash-adversarial exploration of the same space *)
let test_differential_against_explorer () =
  let n = 3 in
  let module Ex = Sim.Explorer.Make (K2) in
  let reachable =
    Ex.reachable_decision_values ~n ~inputs:(distinct n) ~crash_budget:1 ()
  in
  Alcotest.(check bool) "explorer reaches something" true (reachable <> []);
  let cfg =
    {
      (Fuzz.default_config ~k:n ~n ()) with
      Fuzz.weights = Fuzz.fair_weights;
      max_crashes = 1;
      properties = [];
    }
  in
  List.iter
    (fun seed ->
      let decided = ref [] in
      (match
         FK2.run
           ~on_trial:(fun _ run ->
             decided := Sim.Run.decided_values run @ !decided)
           cfg ~seed ~trials:60
       with
      | Fuzz.Clean { trials } -> Alcotest.(check int) "all trials ran" 60 trials
      | _ -> Alcotest.fail "property-free campaign cannot violate");
      List.iter
        (fun v ->
          if not (List.mem v reachable) then
            Alcotest.failf
              "seed %d: fuzzer decided %d, unreachable for the explorer" seed v)
        (List.sort_uniq compare !decided))
    [ 1; 2; 3; 4; 5 ]

(* kset-flp with L=3 at n=3 and p0 initially dead: the two survivors
   wait forever for a second hello — every fair schedule exhausts the
   budget undecided *)
let termination_cfg =
  {
    (Fuzz.default_config ~k:1 ~n:3 ()) with
    Fuzz.pattern = Sim.Failure_pattern.initial_dead ~n:3 ~dead:[ 0 ];
    weights = Fuzz.fair_weights;
    max_steps = 40;
    properties = [ Fuzz.Termination ];
  }

let test_termination_violation_budget_shaped () =
  (* The counterexample is budget-shaped: no step can be removed
     without losing budget exhaustion, so shrinking must return the
     full schedule. *)
  let v = expect_violation (FK3.run termination_cfg ~seed:11 ~trials:5) in
  Alcotest.(check int) "violates immediately" 0 v.Fuzz.trial;
  Alcotest.(check string) "termination" "termination" v.Fuzz.property;
  Alcotest.(check int) "full budget schedule" 40 (List.length v.Fuzz.schedule);
  Alcotest.(check bool) "unshrinkable: budget-shaped" true
    (v.Fuzz.shrunk = v.Fuzz.schedule)

let test_validity_custom_property () =
  (* a custom predicate violated by construction: flag any decision at
     all; the shrunk schedule is then the single deciding step *)
  let cfg =
    {
      trivial_cfg with
      Fuzz.properties =
        [
          Fuzz.Custom
            ( "no-decision",
              fun run ->
                if Sim.Run.decided_values run <> [] then
                  Some "a process decided"
                else None );
        ];
    }
  in
  let v = expect_violation (FT.run cfg ~seed:1 ~trials:10) in
  Alcotest.(check string) "custom name" "no-decision" v.Fuzz.property;
  Alcotest.(check int) "single-step counterexample" 1
    (List.length v.Fuzz.shrunk)

(* A blind campaign runs its trials unrecorded and re-runs the first
   violating one recorded; an [on_trial] observer keeps every trial
   recorded.  Both report the same violation, field by field.  At one
   domain both count the same trials (the re-run is not counted); at
   two, trials above the violation run as the domains' timing lets
   them, so each counts at least the trials up to the violation. *)
let check_violation_fields msg (a : Fuzz.violation) (b : Fuzz.violation) =
  check_violation_equal msg a b;
  Alcotest.(check int)
    (msg ^ ": shrink candidates") a.Fuzz.shrink_candidates
    b.Fuzz.shrink_candidates;
  Alcotest.(check bool) (msg ^ ": replays") a.Fuzz.replays b.Fuzz.replays;
  let ra = a.Fuzz.run and rb = b.Fuzz.run in
  Alcotest.(check bool) (msg ^ ": events") true
    (ra.Sim.Run.events = rb.Sim.Run.events);
  Alcotest.(check bool) (msg ^ ": trace") true
    (Sim.Trace.equal ra.Sim.Run.trace rb.Sim.Run.trace);
  Alcotest.(check bool) (msg ^ ": forges") true
    (ra.Sim.Run.forges = rb.Sim.Run.forges);
  Alcotest.(check bool) (msg ^ ": decisions") true
    (ra.Sim.Run.decisions = rb.Sim.Run.decisions)

let m_trials = Ksa_prim.Metrics.counter "fuzz.trials"

(* [campaign on_trial domains] runs one campaign; returns the blind
   one-domain violation *)
let unrecorded_parity campaign =
  let counted on_trial domains =
    let t0 = Ksa_prim.Metrics.value m_trials in
    let v = expect_violation (campaign on_trial domains) in
    (v, Ksa_prim.Metrics.value m_trials - t0)
  in
  let at domains =
    let msg = Printf.sprintf "d=%d" domains in
    let blind, n_blind = counted None domains in
    let seen, n_seen = counted (Some (fun _ _ -> ())) domains in
    check_violation_fields msg blind seen;
    Alcotest.(check bool)
      (msg ^ ": the recorded run has its events") true
      (blind.Fuzz.run.Sim.Run.events <> []);
    if domains = 1 then begin
      Alcotest.(check int) (msg ^ ": fuzz.trials") n_seen n_blind;
      Alcotest.(check int) (msg ^ ": trials to the violation")
        (blind.Fuzz.trial + 1) n_blind
    end
    else
      List.iter
        (fun n ->
          Alcotest.(check bool) (msg ^ ": fuzz.trials") true
            (n > blind.Fuzz.trial))
        [ n_blind; n_seen ];
    blind
  in
  let one = at 1 in
  check_violation_fields "d=1 vs d=2" one (at 2);
  one

let test_unrecorded_blind_hunt () =
  (* the n=4 near-partition subject blind at seed 3 *)
  let cfg = Fuzz.default_config ~k:1 ~n:4 () in
  ignore
    (unrecorded_parity (fun on_trial domains ->
         FK2.run ?on_trial ~domains cfg ~seed:3 ~trials:50000))

let test_unrecorded_byzantine () =
  let cfg =
    { (Fuzz.default_config ~k:1 ~n:3 ()) with Fuzz.model = Sim.Fault_model.Byzantine 1 }
  in
  let v =
    unrecorded_parity (fun on_trial domains ->
        FK2.run ?on_trial ~domains cfg ~seed:7 ~trials:2000)
  in
  Alcotest.(check bool) "the re-run carries its forges" true
    (v.Fuzz.run.Sim.Run.forges <> [])

let test_unrecorded_termination () =
  let v =
    unrecorded_parity (fun on_trial domains ->
        FK3.run ?on_trial ~domains termination_cfg ~seed:11 ~trials:5)
  in
  Alcotest.(check string) "the reason counts the re-run's steps"
    "correct process undecided after 40 steps" v.Fuzz.reason

let test_unrecorded_custom () =
  let cfg =
    {
      trivial_cfg with
      Fuzz.properties =
        [
          Fuzz.Custom
            ( "first-step-decides",
              fun run ->
                match run.Sim.Run.events with
                | { Sim.Event.decision = Some _; _ } :: _ ->
                    Some "the first step decided"
                | _ -> None );
        ];
    }
  in
  ignore
    (unrecorded_parity (fun on_trial domains ->
         FT.run ?on_trial ~domains cfg ~seed:1 ~trials:10))

(* an interrupt that fires at the first poll ends the campaign before
   any trial runs *)
let test_stop_budget_exhausted () =
  let ckpt () = Sim.Checkpoint.ctl ~interrupt:(fun () -> true) () in
  (match FT.run ~ckpt:(ckpt ()) trivial_cfg ~seed:1 ~trials:100 with
  | Fuzz.Budget_exhausted { trials } ->
      Alcotest.(check int) "no trial ran" 0 trials
  | _ -> Alcotest.fail "expected budget-exhausted (seq)");
  match FT.run_par ~domains:2 ~ckpt:(ckpt ()) trivial_cfg ~seed:1 ~trials:100 with
  | Fuzz.Budget_exhausted { trials } ->
      Alcotest.(check int) "no trial ran (par)" 0 trials
  | _ -> Alcotest.fail "expected budget-exhausted (par)"

(* an interrupt that grants exactly one poll: whichever driver runs,
   exactly one trial completes, so the Budget_exhausted counts of the
   sequential and parallel drivers must agree exactly — the parallel
   driver reports the contiguous clean watermark, not its racy count
   of claimed tickets *)
let one_poll_stop () =
  let polls = Atomic.make 0 in
  let interrupt () = Atomic.fetch_and_add polls 1 >= 1 in
  Sim.Checkpoint.ctl ~interrupt ()

let test_stop_seq_par_count_parity () =
  let clean = { (Fuzz.default_config ~k:1 ~n:3 ()) with Fuzz.max_crashes = 1 } in
  let seq =
    match FK2.run ~ckpt:(one_poll_stop ()) clean ~seed:7 ~trials:100 with
    | Fuzz.Budget_exhausted { trials } -> trials
    | _ -> Alcotest.fail "expected budget-exhausted (seq)"
  in
  Alcotest.(check int) "seq ran exactly one trial" 1 seq;
  List.iter
    (fun domains ->
      match
        FK2.run_par ~domains ~ckpt:(one_poll_stop ()) clean ~seed:7
          ~trials:100
      with
      | Fuzz.Budget_exhausted { trials } ->
          Alcotest.(check int)
            (Printf.sprintf "par(%d) count = seq count" domains)
            seq trials
      | _ -> Alcotest.fail "expected budget-exhausted (par)")
    [ 2; 4 ]

(* ---------- coverage-guided (greybox) mode ---------- *)

(* kset-flp with L=2 at n=4 violates 1-agreement only on near-partition
   schedules (two disjoint hello cycles) — rare for blind search, which
   is exactly what coverage guidance is for.  Seed 3 is pinned: the
   greybox campaign reaches the violation an order of magnitude sooner
   than blind search does. *)
let cov_violating = { (Fuzz.default_config ~k:1 ~n:4 ()) with Fuzz.coverage = true }

let distinct_ids_into acc (run : Sim.Run.t) =
  let tr = run.Sim.Run.trace in
  Array.iter (fun id -> Hashtbl.replace acc id ()) tr.Sim.Trace.init_ids;
  Array.iter
    (Array.iter (fun (s : Sim.Trace.step) ->
         Hashtbl.replace acc s.Sim.Trace.state_id ()))
    tr.Sim.Trace.steps

let test_coverage_beats_blind () =
  (* identical trial budget on the clean kset-flp n=3 subject; the
     greybox campaign must reach strictly more distinct interned state
     ids than the blind one.  Guidance pays off once the shallow state
     space saturates (under ~1000 trials the two are within noise of
     each other); at 2000 trials the greybox margin is >100 ids on
     every seed tried, so the strict inequality is a stable pin, not a
     coin flip. *)
  let base = { (Fuzz.default_config ~k:1 ~n:3 ()) with Fuzz.max_crashes = 1 } in
  let campaign coverage =
    let seen = Hashtbl.create 4096 in
    (match
       FK2.run
         ~on_trial:(fun _ run -> distinct_ids_into seen run)
         { base with Fuzz.coverage } ~seed:7 ~trials:2000
     with
    | Fuzz.Clean { trials } -> Alcotest.(check int) "all trials ran" 2000 trials
    | _ -> Alcotest.fail "expected a clean campaign");
    Hashtbl.length seen
  in
  let blind = campaign false in
  let greybox = campaign true in
  Alcotest.(check bool)
    (Printf.sprintf "greybox (%d ids) > blind (%d ids)" greybox blind)
    true (greybox > blind)

let test_coverage_bit_reproducible () =
  let a = expect_violation (FK2.run cov_violating ~seed:3 ~trials:5000) in
  let b = expect_violation (FK2.run cov_violating ~seed:3 ~trials:5000) in
  check_violation_equal "coverage same seed" a b

let test_coverage_seq_par_violation_parity () =
  let seq = expect_violation (FK2.run cov_violating ~seed:3 ~trials:5000) in
  let par =
    expect_violation (FK2.run_par ~domains:2 cov_violating ~seed:3 ~trials:5000)
  in
  check_violation_equal "coverage seq vs par" seq par

(* The campaign-end coverage gauges fold exactly the clean trials
   below the first violation.  At two domains the violating trial is
   held up on purpose, so the other domain finishes clean trials above
   it first; they must not count. *)
let test_coverage_summary_domains () =
  let module Metrics = Ksa_prim.Metrics in
  let summary () =
    List.map
      (fun g -> Metrics.gauge_value (Metrics.gauge g))
      [ "fuzz.cov.ids"; "fuzz.cov.pairs"; "fuzz.cov.corpus" ]
  in
  let seq = expect_violation (FK2.run cov_violating ~seed:3 ~trials:5000) in
  let one = summary () in
  let above = Atomic.make 0 in
  let on_trial i _ =
    if i = seq.Fuzz.trial then Unix.sleepf 0.2
    else if i > seq.Fuzz.trial then Atomic.incr above
  in
  let par =
    expect_violation
      (FK2.run ~on_trial ~domains:2 cov_violating ~seed:3 ~trials:5000)
  in
  check_violation_equal "coverage seq vs par" seq par;
  Alcotest.(check bool) "trials above the violation ran" true
    (Atomic.get above > 0);
  Alcotest.(check (list int)) "ids, pairs, corpus" one (summary ())

let test_coverage_finds_violation_sooner () =
  (* the pinned time-to-violation claim: same algorithm, same seed,
     same per-trial budget — greybox needs far fewer trials *)
  let blind_cfg = { cov_violating with Fuzz.coverage = false } in
  let blind = expect_violation (FK2.run blind_cfg ~seed:3 ~trials:50000) in
  let greybox = expect_violation (FK2.run cov_violating ~seed:3 ~trials:50000) in
  Alcotest.(check bool)
    (Printf.sprintf "greybox trial %d < blind trial %d" greybox.Fuzz.trial
       blind.Fuzz.trial)
    true
    (greybox.Fuzz.trial < blind.Fuzz.trial)

let test_coverage_clean_seq_par_parity () =
  let cfg =
    {
      (Fuzz.default_config ~k:1 ~n:3 ()) with
      Fuzz.max_crashes = 1;
      coverage = true;
    }
  in
  let seq = FK2.run cfg ~seed:7 ~trials:200 in
  let par = FK2.run_par ~domains:3 cfg ~seed:7 ~trials:200 in
  match (seq, par) with
  | Fuzz.Clean { trials = a }, Fuzz.Clean { trials = b } ->
      Alcotest.(check int) "seq trials" 200 a;
      Alcotest.(check int) "par trials" 200 b
  | _ -> Alcotest.fail "expected clean campaigns in both drivers"

let test_rate_probes () =
  (* the rates are the campaign's: trials and coverage ids over the
     calling domain's [fuzz.campaign] time, not over [fuzz.trial],
     which sums trial time over the domains *)
  let cfg = { (Fuzz.default_config ~n:3 ()) with Fuzz.coverage = true } in
  ignore (FK2.run ~domains:2 cfg ~seed:5 ~trials:300);
  let s = Ksa_prim.Metrics.snapshot () in
  let get name = List.assoc name s in
  let ns = get "fuzz.campaign.ns" in
  Alcotest.(check bool) "fuzz.campaign timed" true (ns > 0);
  Alcotest.(check int) "fuzz.schedules_per_sec"
    (get "fuzz.trials" * 1_000_000_000 / ns)
    (get "fuzz.schedules_per_sec");
  Alcotest.(check int) "fuzz.cov.ids_per_sec"
    (get "fuzz.cov.ids" * 1_000_000_000 / ns)
    (get "fuzz.cov.ids_per_sec")

let test_weights_validated () =
  let cfg =
    {
      trivial_cfg with
      Fuzz.weights =
        {
          Fuzz.deliver_all = 0;
          deliver_some = 0;
          deliver_none = 0;
          drop = 1;
          undecided_bias = 0;
        };
    }
  in
  Alcotest.check_raises "no step weight"
    (Invalid_argument "Fuzz: at least one step weight must be positive")
    (fun () -> ignore (FT.run cfg ~seed:1 ~trials:1))

(* The adversary reads its observation in place: with no crashed
   sender, a decision allocates its [Step] record (3 words) and the
   delivery list (3 words an id), nothing else, on every arm. *)
let test_decision_allocation () =
  let module E = Sim.Engine.Make (K2) in
  let n = 4 in
  let pattern = Sim.Failure_pattern.none ~n in
  let c =
    List.fold_left
      (fun c pid ->
        Option.get
          (E.apply ~pattern c (Sim.Adversary.Step { pid; deliver = [] })))
      (E.init ~n ~inputs:(distinct n) ())
      [ 0; 1; 2; 3; 0 ]
  in
  Alcotest.(check bool) "messages pending" true (List.length (E.pending c) > 4);
  let obs = E.observe ~pattern c in
  let adv = FK2.adversary (Fuzz.default_config ~k:2 ~n ()) (Ksa_prim.Rng.create ~seed:5) in
  ignore (adv.Sim.Adversary.next obs);
  let used = ref 0. and allowed = ref 0 and delivered = ref 0 in
  for _ = 1 to 2000 do
    let w0 = Gc.minor_words () in
    let a = adv.Sim.Adversary.next obs in
    used := !used +. (Gc.minor_words () -. w0);
    match a with
    | Sim.Adversary.Step { deliver; _ } ->
        let k = List.length deliver in
        delivered := !delivered + k;
        allowed := !allowed + 3 + (3 * k)
    | _ -> Alcotest.fail "a fuzz decision here is a step"
  done;
  Alcotest.(check bool) "some deliveries drawn" true (!delivered > 0);
  Alcotest.(check (float 0.)) "words per decision" (float !allowed) !used

(* Every recorded fuzz run — blind, coverage-guided (whose mutants
   replay corpus schedules leniently, channels out of send order),
   Byzantine (forged payloads) and mobile — projects to a schedule
   that strictly replays, under the run's own pattern, to the
   identical trace. *)
let prop_projection_replays =
  QCheck.Test.make ~name:"project then strict replay reproduces the trace"
    ~count:20
    QCheck.(pair (int_bound 0x3fffffff) (int_range 3 4))
    (fun (seed, n) ->
      List.for_all
        (fun (model, coverage) ->
          let cfg =
            {
              (Fuzz.default_config ~k:2 ~n ()) with
              Fuzz.model;
              coverage;
              max_crashes = 1;
            }
          in
          let runs = ref [] in
          ignore
            (FK2.run ~on_trial:(fun _ r -> runs := r :: !runs) cfg ~seed
               ~trials:48);
          List.for_all
            (fun (r : Sim.Run.t) ->
              match
                FK2.replay_strict ~pattern:r.Sim.Run.pattern cfg
                  (Sim.Trace_io.schedule_of_run r)
              with
              | Ok r' ->
                  Sim.Trace.equal r.Sim.Run.trace r'.Sim.Run.trace
                  && r.Sim.Run.decisions = r'.Sim.Run.decisions
              | Error e -> QCheck.Test.fail_reportf "seed %d n=%d: %s" seed n e)
            !runs)
        Sim.Fault_model.
          [
            (Crash, false);
            (Crash, true);
            (Byzantine 1, false);
            (Byzantine 1, true);
            (Mobile 1, true);
          ])

let suites =
  [
    ( "sim.fuzz",
      [
        Alcotest.test_case "bit-reproducible" `Quick test_bit_reproducible;
        Alcotest.test_case "seq/par violation parity" `Quick
          test_seq_par_violation_parity;
        Alcotest.test_case "seq/par clean parity" `Quick
          test_seq_par_clean_parity;
        Alcotest.test_case "trial is pure" `Quick test_trial_is_pure;
        Alcotest.test_case "shrunk 1-minimal + round-trip replay" `Quick
          test_shrunk_one_minimal_and_roundtrips;
        Alcotest.test_case "full schedule re-violates" `Quick
          test_full_schedule_also_reviolates;
        Alcotest.test_case "differential vs explorer" `Quick
          test_differential_against_explorer;
        Alcotest.test_case "termination counterexample is budget-shaped"
          `Quick test_termination_violation_budget_shaped;
        Alcotest.test_case "custom property" `Quick test_validity_custom_property;
        Alcotest.test_case "unrecorded trials: blind n=4 hunt parity" `Quick
          test_unrecorded_blind_hunt;
        Alcotest.test_case "unrecorded trials: Byzantine parity" `Quick
          test_unrecorded_byzantine;
        Alcotest.test_case "unrecorded trials: termination parity" `Quick
          test_unrecorded_termination;
        Alcotest.test_case "unrecorded trials: custom property parity" `Quick
          test_unrecorded_custom;
        Alcotest.test_case "stop => budget exhausted" `Quick
          test_stop_budget_exhausted;
        Alcotest.test_case "stop count: seq/par parity" `Quick
          test_stop_seq_par_count_parity;
        Alcotest.test_case "weights validated" `Quick test_weights_validated;
        Alcotest.test_case "coverage beats blind on distinct ids" `Quick
          test_coverage_beats_blind;
        Alcotest.test_case "coverage bit-reproducible" `Quick
          test_coverage_bit_reproducible;
        Alcotest.test_case "coverage seq/par violation parity" `Quick
          test_coverage_seq_par_violation_parity;
        Alcotest.test_case "coverage clean seq/par parity" `Quick
          test_coverage_clean_seq_par_parity;
        Alcotest.test_case "coverage summary equal at d=1 and d=2" `Quick
          test_coverage_summary_domains;
        Alcotest.test_case "coverage finds violation sooner" `Slow
          test_coverage_finds_violation_sooner;
        Alcotest.test_case "a decision allocates its step only" `Quick
          test_decision_allocation;
        QCheck_alcotest.to_alcotest prop_projection_replays;
        Alcotest.test_case "rate probes divide by the campaign timer" `Quick
          test_rate_probes;
      ] );
  ]
