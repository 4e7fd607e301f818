(* Crash-safe campaigns: Durable framing and corruption detection,
   the monotonic clock, and — the load-bearing invariant — that a
   campaign interrupted mid-run and resumed from its checkpoint
   reports exactly the verdict and stats of an uninterrupted run, for
   every driver (explore / explore_with_crashes / fuzz, sequential
   and parallel), and that a worker-domain failure is supervised
   rather than fatal. *)

module Prim = Ksa_prim
module Durable = Prim.Durable
module Clock = Prim.Clock
module Metrics = Prim.Metrics
module Sim = Ksa_sim
module Checkpoint = Sim.Checkpoint
module FP = Sim.Failure_pattern
module K2 = Ksa_algo.Kset_flp.Make (struct
  let l = 2
end)

let distinct = Sim.Value.distinct_inputs
let no_check _ = None

let tmp_path suffix =
  let path = Filename.temp_file "ksa_ckpt" suffix in
  Sys.remove path;
  path

let with_tmp suffix f =
  let path = tmp_path suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let ok_or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let expect_error name = function
  | Ok _ -> Alcotest.fail (name ^ ": expected Error, got Ok")
  | Error e -> e

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_contains name ~sub e =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S mentions %S" name e sub)
    true (contains ~sub e)

(* ---------- Durable: atomic writes and framing ---------- *)

let test_atomic_roundtrip () =
  with_tmp ".bin" (fun path ->
      let data = String.init 1033 (fun i -> Char.chr (i * 7 mod 256)) in
      ok_or_fail (Durable.write_atomic ~path data);
      Alcotest.(check string) "roundtrip" data (ok_or_fail (Durable.read_file ~path));
      (* replacement is atomic: a second write fully supersedes *)
      ok_or_fail (Durable.write_atomic ~path "second");
      Alcotest.(check string) "replaced" "second"
        (ok_or_fail (Durable.read_file ~path)))

let test_atomic_write_error () =
  let path = "/nonexistent-dir-ksa/x.bin" in
  let e = expect_error "write" (Durable.write_atomic ~path "data") in
  check_contains "write error" ~sub:path e

let test_framed_roundtrip () =
  with_tmp ".rec" (fun path ->
      let payload = String.init 4096 (fun i -> Char.chr (i mod 251)) in
      ok_or_fail (Durable.write_framed ~path ~magic:"KSATEST1" ~version:3 payload);
      let version, back =
        ok_or_fail (Durable.read_framed ~path ~magic:"KSATEST1")
      in
      Alcotest.(check int) "version" 3 version;
      Alcotest.(check string) "payload" payload back)

let test_framed_truncated () =
  with_tmp ".rec" (fun path ->
      ok_or_fail
        (Durable.write_framed ~path ~magic:"KSATEST1" ~version:1
           (String.make 500 'x'));
      let whole = ok_or_fail (Durable.read_file ~path) in
      (* chop mid-payload, as a crash mid-write of a non-atomic file
         would: the frame must notice, not misparse *)
      ok_or_fail (Durable.write_atomic ~path (String.sub whole 0 100));
      let e =
        expect_error "truncated" (Durable.read_framed ~path ~magic:"KSATEST1")
      in
      check_contains "truncated" ~sub:"truncated" e;
      (* chop inside the 24-byte header too *)
      ok_or_fail (Durable.write_atomic ~path (String.sub whole 0 10));
      let e =
        expect_error "short header"
          (Durable.read_framed ~path ~magic:"KSATEST1")
      in
      check_contains "short header" ~sub:path e)

let test_framed_bitflip () =
  with_tmp ".rec" (fun path ->
      ok_or_fail
        (Durable.write_framed ~path ~magic:"KSATEST1" ~version:1
           (String.make 500 'x'));
      let whole = Bytes.of_string (ok_or_fail (Durable.read_file ~path)) in
      (* flip one bit in the middle of the payload *)
      let i = 24 + 250 in
      Bytes.set whole i (Char.chr (Char.code (Bytes.get whole i) lxor 0x10));
      ok_or_fail (Durable.write_atomic ~path (Bytes.to_string whole));
      let e =
        expect_error "bitflip" (Durable.read_framed ~path ~magic:"KSATEST1")
      in
      check_contains "bitflip" ~sub:"CRC mismatch" e)

let test_framed_bad_magic () =
  with_tmp ".rec" (fun path ->
      ok_or_fail (Durable.write_framed ~path ~magic:"KSATEST1" ~version:1 "p");
      let e =
        expect_error "magic" (Durable.read_framed ~path ~magic:"KSAOTHER")
      in
      check_contains "magic" ~sub:"magic" e)

let test_crc32_vector () =
  (* the standard check value of CRC-32/IEEE *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Durable.crc32 "123456789");
  Alcotest.(check int) "chained = whole"
    (Durable.crc32 "123456789")
    (Durable.crc32 ~init:(Durable.crc32 "12345") "6789")

(* ---------- Clock ---------- *)

let test_clock_monotonic () =
  let last = ref (Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_ns () in
    if t < !last then Alcotest.fail "monotonic clock went backwards";
    last := t
  done;
  let since = Clock.now_ns () in
  Unix.sleepf 0.02;
  let e = Clock.elapsed_s ~since in
  Alcotest.(check bool)
    (Printf.sprintf "elapsed_s %.4f sane" e)
    true
    (e >= 0.015 && e < 5.0)

(* ---------- Checkpoint.load on damaged files ---------- *)

let test_load_missing () =
  let e =
    expect_error "missing" (Checkpoint.load ~path:"/tmp/ksa-no-such.ckpt")
  in
  check_contains "missing" ~sub:"ksa-no-such.ckpt" e

(* 99 is from the future; [version - 1] is the previous layout, whose
   marshalled configurations would load type-confused *)
let test_load_wrong_version () =
  List.iter
    (fun version ->
      with_tmp ".ckpt" (fun path ->
          ok_or_fail (Durable.write_framed ~path ~magic:"KSACKPT1" ~version "x");
          let e = expect_error "version" (Checkpoint.load ~path) in
          check_contains
            (Printf.sprintf "version %d" version)
            ~sub:"unsupported checkpoint version" e))
    [ 99; Checkpoint.version - 1 ]

let test_load_garbage_body () =
  with_tmp ".ckpt" (fun path ->
      ok_or_fail
        (Durable.write_framed ~path ~magic:"KSACKPT1"
           ~version:Checkpoint.version
           "not a marshalled tuple");
      let e = expect_error "garbage" (Checkpoint.load ~path) in
      check_contains "garbage" ~sub:"undecodable" e)

(* ---------- interrupted campaigns resume to identical verdicts ----------

   The interrupt closures below fire after a fixed number of polls, so
   each test cuts its campaign mid-run deterministically (one-domain
   runs poll once per popped item).  The assertions do not
   depend on where the cut lands: any cut must resume to the
   uninterrupted verdict. *)

let poll_interrupt n =
  let polls = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add polls 1 >= n

let sink ~path ~kind =
  (* default 5s cadence: only the final interrupt flush writes, so
     the file's content is exactly the mid-run cut *)
  {
    Checkpoint.path;
    kind;
    fingerprint = "test";
    policy = Checkpoint.default_policy;
  }

(* A raising interrupt hook or snapshot must release the
   controller's lock: the next poll raises again instead of failing to
   lock, and a following flush writes. *)
let test_raising_hook_unlocks () =
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"explore")
          ~interrupt:(fun () -> failwith "hook")
          ()
      in
      let raises f = match f () with _ -> false | exception Failure _ -> true in
      Alcotest.(check bool)
        "poll raises" true
        (raises (fun () -> Checkpoint.interrupted ckpt));
      Alcotest.(check bool)
        "poll raises again" true
        (raises (fun () -> Checkpoint.interrupted ckpt));
      Alcotest.(check bool)
        "tick raises" true
        (raises (fun () ->
             Checkpoint.tick ckpt ~items:max_int (fun () -> failwith "snap")));
      Checkpoint.flush ckpt (fun () -> "payload");
      let t = ok_or_fail (Checkpoint.load ~path) in
      Alcotest.(check string) "flushed" "payload" (Checkpoint.payload t))

let load_restored path =
  let t = ok_or_fail (Checkpoint.load ~path) in
  ok_or_fail (Checkpoint.restore_interners t);
  t

let check_stats name (a : Sim.Explorer.stats) (b : Sim.Explorer.stats) =
  Alcotest.(check int)
    (name ^ ": configs_visited")
    a.Sim.Explorer.configs_visited b.Sim.Explorer.configs_visited;
  Alcotest.(check int)
    (name ^ ": terminal_runs")
    a.Sim.Explorer.terminal_runs b.Sim.Explorer.terminal_runs;
  Alcotest.(check bool)
    (name ^ ": budget_exhausted")
    a.Sim.Explorer.budget_exhausted b.Sim.Explorer.budget_exhausted

let crash_baseline () =
  let module Ex = Sim.Explorer.Make (K2) in
  match
    Ex.explore_with_crashes ~n:3 ~inputs:(distinct 3) ~crash_budget:1
      ~check:no_check ()
  with
  | Sim.Explorer.Stuck { crashed; undecided_correct; stats } ->
      (crashed, undecided_correct, stats)
  | _ -> Alcotest.fail "baseline: expected Stuck"

let check_stuck name (crashed, undecided, stats) outcome =
  match outcome with
  | Sim.Explorer.Stuck b ->
      Alcotest.(check (list int)) (name ^ ": crashed") crashed b.crashed;
      Alcotest.(check (list int))
        (name ^ ": undecided")
        undecided b.undecided_correct;
      check_stats name stats b.stats
  | _ -> Alcotest.fail (name ^ ": expected Stuck after resume")

let test_explore_crash_seq_resume () =
  let module Ex = Sim.Explorer.Make (K2) in
  let baseline = crash_baseline () in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"explore-crash")
          ~interrupt:(poll_interrupt 2000) ()
      in
      (match
         Ex.explore_with_crashes ~ckpt ~n:3 ~inputs:(distinct 3)
           ~crash_budget:1 ~check:no_check ()
       with
      | Sim.Explorer.Indeterminate _ -> ()
      | _ -> Alcotest.fail "interrupted run should be Indeterminate");
      let t = load_restored path in
      check_stuck "crash seq resume" baseline
        (Ex.explore_with_crashes ~resume:(Checkpoint.payload t) ~n:3
           ~inputs:(distinct 3) ~crash_budget:1 ~check:no_check ()))

let test_explore_crash_par_resume () =
  (* pause-the-world cut of the parallel driver, resumed sequentially
     (par checkpoints are merged into sequential format at write
     time).  The interrupt is always-on: the coordinator's first tick
     parks the workers wherever they are and flushes that cut.  Run
     the kill/resume leg at every supported domain count — the merge
     reads the shared table, the node store, parked stacks and pools,
     none of which may lose items however the workers were racing. *)
  let module Ex = Sim.Explorer.Make (K2) in
  let baseline = crash_baseline () in
  List.iter
    (fun domains ->
      with_tmp ".ckpt" (fun path ->
          let ckpt =
            Checkpoint.ctl ~sink:(sink ~path ~kind:"explore-crash")
              ~interrupt:(fun () -> true)
              ()
          in
          (match
             Ex.explore_with_crashes_par ~domains ~ckpt ~n:3
               ~inputs:(distinct 3) ~crash_budget:1 ~check:no_check ()
           with
          | Sim.Explorer.Indeterminate _ -> ()
          | _ -> Alcotest.fail "interrupted par run should be Indeterminate");
          let t = load_restored path in
          check_stuck
            (Printf.sprintf "crash par resume d=%d" domains)
            baseline
            (Ex.explore_with_crashes ~resume:(Checkpoint.payload t) ~n:3
               ~inputs:(distinct 3) ~crash_budget:1 ~check:no_check ())))
    [ 2; 4; 8 ]

(* ---------- the crash driver: order and resume at d=1 and d=2 ---------- *)

let crash_run ?ckpt ?resume ?max_configs ~domains () =
  let module Ex = Sim.Explorer.Make (K2) in
  Ex.explore_with_crashes ~domains ?ckpt ?resume ?max_configs ~n:3
    ~inputs:(distinct 3) ~crash_budget:1 ~check:no_check ()

let indeterminate name = function
  | Sim.Explorer.Indeterminate s -> s
  | _ -> Alcotest.fail (name ^ ": expected Indeterminate")

let test_crash_one_domain_order () =
  (* one domain walks one fixed depth-first order, so even truncated
     stats are deterministic: these are the figures of the sequential
     worklist loop the one-domain run replaced.  No domain is spawned
     for it *)
  let spawned () = Metrics.value (Metrics.counter "explore.domains.spawned") in
  let before = spawned () in
  List.iter
    (fun (max_configs, terminals) ->
      let name = Printf.sprintf "d=1 max_configs=%d" max_configs in
      let s = indeterminate name (crash_run ~max_configs ~domains:1 ()) in
      Alcotest.(check int)
        (name ^ ": configs_visited")
        max_configs s.Sim.Explorer.configs_visited;
      Alcotest.(check int)
        (name ^ ": terminal_runs")
        terminals s.Sim.Explorer.terminal_runs)
    [ (50, 1); (500, 187); (5_000, 1_040); (15_000, 2_815) ];
  Alcotest.(check int) "no domain spawned at d=1" before (spawned ())

let test_crash_one_domain_truncated_resume () =
  (* a truncated one-domain campaign killed mid-run and resumed on one
     domain pops its worklist in the order the uninterrupted run would
     have, so even the order-dependent truncated stats match *)
  let max_configs = 15_000 in
  let baseline =
    indeterminate "baseline" (crash_run ~max_configs ~domains:1 ())
  in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"explore-crash")
          ~interrupt:(poll_interrupt 2000) ()
      in
      let cut =
        indeterminate "interrupted" (crash_run ~ckpt ~max_configs ~domains:1 ())
      in
      Alcotest.(check bool) "cut before the budget" true
        (cut.Sim.Explorer.configs_visited < max_configs);
      let t = load_restored path in
      check_stats "d=1 truncated resume" baseline
        (indeterminate "resumed"
           (crash_run ~resume:(Checkpoint.payload t) ~max_configs ~domains:1
              ())))

let test_crash_two_domain_resume () =
  (* a two-domain cut resumed on two domains: the resumed run spawns
     its workers and reports the uninterrupted verdict and stats *)
  let baseline = crash_baseline () in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"explore-crash")
          ~interrupt:(fun () -> true)
          ()
      in
      ignore (indeterminate "interrupted d=2" (crash_run ~ckpt ~domains:2 ()));
      let t = load_restored path in
      check_stuck "d=2 cut resumed at d=2" baseline
        (crash_run ~resume:(Checkpoint.payload t) ~domains:2 ()))

(* ---------- the crash-free driver: resume across domain counts ---------- *)

let explore_run ?(reduction = Sim.Canon.No_reduction) ?ckpt ?resume
    ?max_configs ?(check = no_check) ~domains () =
  let module Ex = Sim.Explorer.Make (K2) in
  match
    Ex.explore ~reduction ~domains ?ckpt ?resume ?max_configs ~n:3
      ~inputs:(distinct 3) ~pattern:(FP.none ~n:3) ~check ()
  with
  | Sim.Explorer.Safe s -> s
  | Sim.Explorer.Violation _ -> Alcotest.fail "unexpected violation"

let test_explore_resume_domains () =
  (* a crash-free campaign cut at one domain (mid-run, after a fixed
     number of interrupt polls) or at two and four (the coordinator's
     first tick parks the workers wherever they are) resumes at one
     domain and at two to the uninterrupted stats — unreduced and
     under sym *)
  List.iter
    (fun reduction ->
      let mode = Sim.Canon.reduction_to_string reduction in
      let baseline = explore_run ~reduction ~domains:1 () in
      Alcotest.(check bool)
        (mode ^ ": baseline untruncated")
        false baseline.Sim.Explorer.budget_exhausted;
      List.iter
        (fun cut_at ->
          with_tmp ".ckpt" (fun path ->
              let interrupt =
                if cut_at = 1 then poll_interrupt 40 else fun () -> true
              in
              let ckpt =
                Checkpoint.ctl ~sink:(sink ~path ~kind:"explore") ~interrupt ()
              in
              let cut = explore_run ~reduction ~ckpt ~domains:cut_at () in
              Alcotest.(check bool)
                (Printf.sprintf "%s: run cut at d=%d is truncated" mode cut_at)
                true cut.Sim.Explorer.budget_exhausted;
              let t = load_restored path in
              Alcotest.(check string) "kind" "explore" (Checkpoint.kind t);
              List.iter
                (fun domains ->
                  check_stats
                    (Printf.sprintf "%s: cut at d=%d, resumed at d=%d" mode
                       cut_at domains)
                    baseline
                    (explore_run ~reduction ~resume:(Checkpoint.payload t)
                       ~domains ()))
                [ 1; 2 ]))
        [ 1; 2; 4 ])
    [ Sim.Canon.No_reduction; Sim.Canon.Symmetry ]

let test_explore_one_domain_truncated_resume () =
  (* one domain pops its candidates in the order of the recursive
     depth-first search, so a truncated campaign killed mid-run and
     resumed on one domain spends its budget exactly as the
     uninterrupted run did: even the order-dependent terminal count
     matches *)
  let max_configs = 2_000 in
  let baseline = explore_run ~max_configs ~domains:1 () in
  Alcotest.(check bool) "baseline truncated" true
    baseline.Sim.Explorer.budget_exhausted;
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        (* the interrupt is polled once per pop, and a pop admits at
           most one configuration: 1,500 polls cut before the budget *)
        Checkpoint.ctl ~sink:(sink ~path ~kind:"explore")
          ~interrupt:(poll_interrupt 1_500) ()
      in
      let cut = explore_run ~ckpt ~max_configs ~domains:1 () in
      Alcotest.(check bool) "cut before the budget" true
        (cut.Sim.Explorer.configs_visited < max_configs);
      let t = load_restored path in
      check_stats "d=1 truncated resume" baseline
        (explore_run ~resume:(Checkpoint.payload t) ~max_configs ~domains:1 ()))

let test_explore_orphan_cut () =
  (* a cut holding a pending orphan: the bomb fires on the root's
     expansion, whose admission stands while the dying worker hands
     the root back, and the interrupt then stops the one-domain
     rescue before it re-expands it.  The payload keeps the root's id
     and marks its key orphaned, so a resume at one domain or at two
     expands the root despite the dedup hit and reaches the
     uninterrupted stats *)
  let baseline = explore_run ~domains:1 () in
  let calls = Atomic.make 0 in
  let bomb _ =
    if Atomic.fetch_and_add calls 1 = 0 then failwith "injected fault";
    None
  in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"explore")
          ~interrupt:(fun () -> Atomic.get calls > 0)
          ()
      in
      let cut = explore_run ~ckpt ~check:bomb ~domains:1 () in
      Alcotest.(check int) "the cut holds the admitted root only" 1
        cut.Sim.Explorer.configs_visited;
      Alcotest.(check int) "the root's failure is in the ledger" 1
        (List.length (Checkpoint.ledger_of ckpt));
      let t = load_restored path in
      List.iter
        (fun domains ->
          check_stats
            (Printf.sprintf "orphan cut resumed at d=%d" domains)
            baseline
            (explore_run ~resume:(Checkpoint.payload t) ~domains ()))
        [ 1; 2 ])

let test_explore_crash_resume_reduced () =
  (* the crash drivers under reduction: orbit-keyed node graph through
     a parallel pause-the-world cut, resumed sequentially *)
  let module Ex = Sim.Explorer.Make (K2) in
  let reduction = Sim.Canon.Symmetry in
  let baseline =
    match
      Ex.explore_with_crashes ~reduction ~n:3 ~inputs:(distinct 3)
        ~crash_budget:1 ~check:no_check ()
    with
    | Sim.Explorer.Stuck { crashed; undecided_correct; stats } ->
        (crashed, undecided_correct, stats)
    | _ -> Alcotest.fail "reduced baseline: expected Stuck"
  in
  List.iter
    (fun domains ->
      with_tmp ".ckpt" (fun path ->
          let ckpt =
            Checkpoint.ctl ~sink:(sink ~path ~kind:"explore-crash")
              ~interrupt:(fun () -> true)
              ()
          in
          (match
             Ex.explore_with_crashes_par ~reduction ~domains ~ckpt ~n:3
               ~inputs:(distinct 3) ~crash_budget:1 ~check:no_check ()
           with
          | Sim.Explorer.Indeterminate _ -> ()
          | _ -> Alcotest.fail "interrupted par run should be Indeterminate");
          let t = load_restored path in
          check_stuck
            (Printf.sprintf "reduced crash par resume d=%d" domains)
            baseline
            (Ex.explore_with_crashes ~reduction
               ~resume:(Checkpoint.payload t) ~n:3 ~inputs:(distinct 3)
               ~crash_budget:1 ~check:no_check ())))
    [ 2; 4; 8 ]

let test_resume_reduction_mismatch () =
  (* a checkpoint written under one reduction mode describes a
     different search: resuming it under another mode must warn and
     start fresh — landing on the full reduced baseline, not on a
     hybrid of the two searches *)
  let module Ex = Sim.Explorer.Make (K2) in
  let reduced_baseline =
    match
      Ex.explore ~reduction:Sim.Canon.Symmetry ~n:3 ~inputs:(distinct 3)
        ~pattern:(FP.none ~n:3) ~check:no_check ()
    with
    | Sim.Explorer.Safe s -> s
    | Sim.Explorer.Violation _ -> Alcotest.fail "unexpected violation"
  in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"explore")
          ~interrupt:(poll_interrupt 40) ()
      in
      (* cut an UNREDUCED campaign... *)
      (match
         Ex.explore ~ckpt ~n:3 ~inputs:(distinct 3) ~pattern:(FP.none ~n:3)
           ~check:no_check ()
       with
      | Sim.Explorer.Safe _ -> ()
      | Sim.Explorer.Violation _ -> Alcotest.fail "unexpected violation");
      let t = load_restored path in
      (* ...and resume it under Symmetry *)
      match
        Ex.explore ~reduction:Sim.Canon.Symmetry
          ~resume:(Checkpoint.payload t) ~n:3 ~inputs:(distinct 3)
          ~pattern:(FP.none ~n:3) ~check:no_check ()
      with
      | Sim.Explorer.Safe s -> check_stats "mismatch restarts" reduced_baseline s
      | Sim.Explorer.Violation _ -> Alcotest.fail "unexpected violation")

(* ---------- a payload of the other engine starts fresh ---------- *)

(* A real explore checkpoint re-framed as v13, the last layout whose
   work items carried sleep sets: the library refuses it by version and
   runs fresh to the uninterrupted verdict, [ksa explore --resume] warns
   and does the same, and [--strict-resume] refuses to run, exit 5. *)
let test_explore_v13_frame () =
  let module Task = Ksa_svc.Task in
  let args =
    [ "explore"; "--algo"; "kset-flp"; "-n"; "3"; "-l"; "2"; "-k"; "1" ]
  in
  let spec =
    ok_or_fail
      (Result.bind
         (Ksa_svc.Json.parse
            {|{"task":"explore","algo":"kset-flp","n":3,"l":2,"k":1}|})
         Task.spec_of_json)
  in
  let safe = "SAFE: 4930 configs visited, 601 terminal runs" in
  let lines c =
    let o = Task.run ?resume:c.Task.payload ~ckpt:c.Task.ckpt spec in
    (Task.summarize (ok_or_fail o)).Task.lines
  in
  let reopen path =
    Task.open_campaign ~resume:path ~interrupt:(fun () -> false) spec
  in
  let v13 = "unsupported checkpoint version 13" in
  with_tmp ".ckpt" (fun path ->
      let cut =
        Task.open_campaign ~checkpoint:path ~interrupt:(poll_interrupt 40) spec
      in
      ignore (lines cut);
      Alcotest.(check (option string)) "its own v14 checkpoint resumes" None
        (reopen path).Task.rejected;
      let magic = "KSACKPT1" in
      let v, body = ok_or_fail (Durable.read_framed ~path ~magic) in
      Alcotest.(check int) "written at the current version" Checkpoint.version
        v;
      ok_or_fail (Durable.write_framed ~path ~magic ~version:13 body);
      let c = reopen path in
      (match c.Task.rejected with
      | Some r -> check_contains "reason" ~sub:(v13 ^ " (want 14)") r
      | None -> Alcotest.fail "a v13 checkpoint was taken up");
      Alcotest.(check bool) "no payload" true (c.Task.payload = None);
      Alcotest.(check (list string)) "fresh campaign" [ safe ] (lines c);
      let code, out, err = Test_cli.ksa (args @ [ "--resume"; path ]) in
      Alcotest.(check int) "lenient: exit" 0 code;
      Alcotest.(check string) "lenient: fresh verdict" (safe ^ "\n") out;
      check_contains "lenient: warned" ~sub:v13 err;
      let code, out, err =
        Test_cli.ksa (args @ [ "--resume"; path; "--strict-resume" ])
      in
      Alcotest.(check int) "strict: exit" 5 code;
      Alcotest.(check string) "strict: no verdict" "" out;
      check_contains "strict: named" ~sub:v13 err)

let with_stderr = Test_util.with_stderr

(* the payload of a one-domain campaign cut after [polls] interrupt
   polls *)
let cut_payload ~kind ~polls run =
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind)
          ~interrupt:(poll_interrupt polls) ()
      in
      run ckpt;
      Checkpoint.payload (load_restored path))

let test_crash_payload_in_explore () =
  (* the crash-free driver handed an explore_with_crashes payload names
     the engine that wrote it and reaches the fresh baseline *)
  let payload =
    cut_payload ~kind:"explore-crash" ~polls:2000 (fun ckpt ->
        ignore (indeterminate "cut" (crash_run ~ckpt ~domains:1 ())))
  in
  let stats, err =
    with_stderr (fun () -> explore_run ~resume:payload ~domains:1 ())
  in
  check_stats "crash payload resumed by explore" (explore_run ~domains:1 ())
    stats;
  check_contains "warning" err
    ~sub:
      "ksa: checkpoint was written under engine explore-crash, not explore — \
       starting a fresh campaign\n"

let test_explore_payload_in_crash () =
  (* and the other way round *)
  let payload =
    cut_payload ~kind:"explore" ~polls:40 (fun ckpt ->
        ignore (explore_run ~ckpt ~domains:1 ()))
  in
  let outcome, err =
    with_stderr (fun () -> crash_run ~resume:payload ~domains:1 ())
  in
  check_stuck "explore payload resumed by explore_with_crashes"
    (crash_baseline ()) outcome;
  check_contains "warning" err
    ~sub:
      "ksa: checkpoint was written under engine explore, not explore-crash — \
       starting a fresh campaign\n"

(* ---------- worker supervision ---------- *)

let test_explore_par_supervision () =
  (* checks that raise inside worker domains: a dying worker spills
     its frontier back to the shared pool, the survivors (or the
     post-join rescue worker) drain it, and the campaign must still
     report the baseline verdict and stats and record every failure in
     the ledger.  The first bomb fires on the root's expansion, which
     must be supervised like any other node's: it may not escape to
     the caller.  The second fires mid-run, killing the surviving
     worker too, so the rescue worker finishes the campaign. *)
  let module Ex = Sim.Explorer.Make (K2) in
  let baseline = crash_baseline () in
  let calls = Atomic.make 0 in
  let bomb _ =
    let c = Atomic.fetch_and_add calls 1 in
    if c = 0 || c = 1000 then failwith "injected fault";
    None
  in
  let ckpt = Checkpoint.ctl () in
  let failures_before =
    Metrics.value (Metrics.counter "campaign.worker.failures")
  in
  check_stuck "supervised par" baseline
    (Ex.explore_with_crashes_par ~domains:2 ~ckpt ~n:3 ~inputs:(distinct 3)
       ~crash_budget:1 ~check:bomb ());
  Alcotest.(check bool) "both faults were actually injected" true
    (Atomic.get calls > 1000);
  Alcotest.(check bool) "ledger records the failures" true
    (List.length (Checkpoint.ledger_of ckpt) >= 2);
  Alcotest.(check bool) "campaign.worker.failures bumped" true
    (Metrics.value (Metrics.counter "campaign.worker.failures")
    > failures_before)

let test_explore_par_plain_supervision () =
  (* fault injection against the crash-free driver, where admission
     and expansion are fused: the dying worker's in-flight configuration
     is already in the shared dedup table when it goes back to the
     pool, so without the orphan protocol its re-processor drops it
     as a duplicate and the whole subtree below it is silently lost
     while the run still reports Safe.  The first bomb fires on the
     root — the one configuration whose subtree is reachable through
     nothing else, so a dropped orphan deterministically collapses
     the run to configs_visited = 1.  The second bomb fires mid-run
     in the surviving worker, killing it too: the post-join rescue
     worker must then drain the pool and re-expand that second
     orphan.  Full stats parity with the one-domain baseline is
     required throughout. *)
  let baseline = explore_run ~domains:1 () in
  Alcotest.(check bool) "baseline large enough to arm both bombs" true
    (baseline.Sim.Explorer.configs_visited > 1000);
  let calls = Atomic.make 0 in
  let bomb _ =
    let c = Atomic.fetch_and_add calls 1 in
    if c = 0 || c = 1000 then failwith "injected fault";
    None
  in
  let ckpt = Checkpoint.ctl () in
  check_stats "supervised explore at d=2" baseline
    (explore_run ~ckpt ~check:bomb ~domains:2 ());
  Alcotest.(check bool) "both faults were actually injected" true
    (Atomic.get calls > 1000);
  Alcotest.(check bool) "ledger records the failures" true
    (List.length (Checkpoint.ledger_of ckpt) >= 2)

(* ---------- fuzz campaigns ---------- *)

module FK2 = Sim.Fuzz.Make (K2)
module FN = Sim.Fuzz.Make (Ksa_algo.Naive_min.Make (struct
  let wait_for = 2
end))

let fuzz_cfg_clean =
  {
    (Sim.Fuzz.default_config ~k:1 ~n:3 ()) with
    Sim.Fuzz.max_crashes = 1;
  }

let fuzz_cfg_violating =
  (* naive-min with a random crash violates 1-agreement within a few
     trials (seed 2: trial 3) — late enough that a resume from an
     earlier watermark is a real continuation *)
  {
    (Sim.Fuzz.default_config ~k:1 ~n:3 ()) with
    Sim.Fuzz.max_crashes = 1;
  }

let check_fuzz_equal name a b =
  match (a, b) with
  | Sim.Fuzz.Clean { trials = ta }, Sim.Fuzz.Clean { trials = tb } ->
      Alcotest.(check int) (name ^ ": clean trials") ta tb
  | Sim.Fuzz.Violation_found va, Sim.Fuzz.Violation_found vb ->
      Alcotest.(check int) (name ^ ": trial") va.Sim.Fuzz.trial vb.Sim.Fuzz.trial;
      Alcotest.(check string)
        (name ^ ": property")
        va.Sim.Fuzz.property vb.Sim.Fuzz.property;
      Alcotest.(check string) (name ^ ": reason") va.Sim.Fuzz.reason vb.Sim.Fuzz.reason;
      Alcotest.(check bool)
        (name ^ ": shrunk schedule")
        true
        (va.Sim.Fuzz.shrunk = vb.Sim.Fuzz.shrunk)
  | _ -> Alcotest.fail (name ^ ": outcomes differ in kind")

(* A fuzz payload resumed over [trials] trials of [cfg] at seed 7, in
   the calling domain: the outcome, and the payload's clean-trial
   watermark read as the lowest trial the resumed campaign runs
   ([trials] when it runs none). *)
let resume_fuzz ?(cfg = fuzz_cfg_clean) ~trials payload =
  let first = ref trials in
  let on_trial i _ = first := min !first i in
  let outcome = FK2.run ~on_trial ~resume_payload:payload cfg ~seed:7 ~trials in
  (outcome, !first)

(* two coverage campaigns end on bit-identical coverage state: the
   same watermark, id and pair counts, and corpus entries in the same
   admission order *)
let check_coverage_equal name a b =
  match (a, b) with
  | Some (a : Sim.Fuzz.coverage_summary), Some (b : Sim.Fuzz.coverage_summary)
    ->
      Alcotest.(check int) (name ^ ": watermark") a.cov_trials b.cov_trials;
      Alcotest.(check int) (name ^ ": distinct ids") a.cov_ids b.cov_ids;
      Alcotest.(check int) (name ^ ": distinct pairs") a.cov_pairs b.cov_pairs;
      Alcotest.(check bool) (name ^ ": corpus nonempty") true (a.cov_corpus <> []);
      Alcotest.(check int)
        (name ^ ": corpus size")
        (List.length a.cov_corpus) (List.length b.cov_corpus);
      List.iter2
        (fun (fpa, scha) (fpb, schb) ->
          Alcotest.(check bool) (name ^ ": corpus pattern") true (FP.equal fpa fpb);
          Alcotest.(check bool) (name ^ ": corpus schedule") true (scha = schb))
        a.cov_corpus b.cov_corpus
  | _ -> Alcotest.fail (name ^ ": expected two coverage campaigns")

let test_fuzz_seq_resume () =
  let trials = 600 in
  let baseline = FK2.run fuzz_cfg_clean ~seed:7 ~trials in
  (match baseline with
  | Sim.Fuzz.Clean _ -> ()
  | _ -> Alcotest.fail "expected a clean baseline");
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"fuzz")
          ~interrupt:(poll_interrupt 150) ()
      in
      (match FK2.run ~ckpt fuzz_cfg_clean ~seed:7 ~trials with
      | Sim.Fuzz.Budget_exhausted { trials = t } ->
          Alcotest.(check bool) "cut mid-campaign" true (t > 0 && t < trials)
      | _ -> Alcotest.fail "interrupted fuzz should be Budget_exhausted");
      let t = load_restored path in
      let resumed, watermark = resume_fuzz ~trials (Checkpoint.payload t) in
      Alcotest.(check bool) "watermark mid-campaign" true
        (watermark > 0 && watermark < trials);
      check_fuzz_equal "fuzz seq resume" baseline resumed)

let test_fuzz_par_resume () =
  let trials = 600 in
  let baseline = FK2.run fuzz_cfg_clean ~seed:7 ~trials in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"fuzz")
          ~interrupt:(poll_interrupt 100) ()
      in
      (match FK2.run_par ~domains:2 ~ckpt fuzz_cfg_clean ~seed:7 ~trials with
      | Sim.Fuzz.Budget_exhausted _ -> ()
      | _ -> Alcotest.fail "interrupted par fuzz should be Budget_exhausted");
      let payload = Checkpoint.payload (load_restored path) in
      (* resume on both drivers: same clean verdict *)
      check_fuzz_equal "fuzz par->seq resume" baseline
        (FK2.run ~resume_payload:payload fuzz_cfg_clean ~seed:7 ~trials);
      check_fuzz_equal "fuzz par->par resume" baseline
        (FK2.run_par ~domains:2 ~resume_payload:payload fuzz_cfg_clean ~seed:7
           ~trials))

let test_fuzz_violation_resume () =
  let trials = 50 in
  let baseline = FN.run fuzz_cfg_violating ~seed:2 ~trials in
  let vtrial =
    match baseline with
    | Sim.Fuzz.Violation_found v -> v.Sim.Fuzz.trial
    | _ -> Alcotest.fail "expected a violating baseline"
  in
  Alcotest.(check bool) "violation late enough to resume before it" true
    (vtrial >= 1);
  (* resuming from any watermark at or below the violating trial must
     rediscover the identical violation, shrink included: cut a
     checkpointed campaign at [vtrial / 2] and resume its payload *)
  let payload =
    with_tmp ".ckpt" (fun path ->
        let ckpt =
          Checkpoint.ctl ~sink:(sink ~path ~kind:"fuzz")
            ~interrupt:(poll_interrupt (vtrial / 2)) ()
        in
        (match FN.run ~ckpt fuzz_cfg_violating ~seed:2 ~trials with
        | Sim.Fuzz.Budget_exhausted _ -> ()
        | _ -> Alcotest.fail "interrupted fuzz should be Budget_exhausted");
        Checkpoint.payload (load_restored path))
  in
  check_fuzz_equal "violation resume (seq)" baseline
    (FN.run ~resume_payload:payload fuzz_cfg_violating ~seed:2 ~trials);
  check_fuzz_equal "violation resume (par)" baseline
    (FN.run_par ~domains:2 ~resume_payload:payload fuzz_cfg_violating
       ~seed:2 ~trials)

(* one supervision policy at every domain count, blind or coverage *)
let supervision_modes =
  List.concat_map
    (fun domains -> [ (domains, false); (domains, true) ])
    [ 1; 2 ]

let mode_name (domains, coverage) =
  Printf.sprintf "d=%d %s" domains (if coverage then "coverage" else "blind")

let with_property cfg name f =
  {
    cfg with
    Sim.Fuzz.properties =
      cfg.Sim.Fuzz.properties @ [ Sim.Fuzz.Custom (name, f) ];
  }

let test_fuzz_par_supervision () =
  let trials = 300 in
  List.iter
    (fun ((domains, coverage) as mode) ->
      let name = mode_name mode in
      let base = { fuzz_cfg_clean with Sim.Fuzz.coverage } in
      let baseline = FK2.run base ~seed:7 ~trials in
      let armed = Atomic.make true in
      let bomb _run =
        if Atomic.compare_and_set armed true false then
          failwith "injected fault";
        None
      in
      let ckpt = Checkpoint.ctl () in
      let outcome =
        FK2.run ~domains ~ckpt (with_property base "bomb" bomb) ~seed:7 ~trials
      in
      check_fuzz_equal ("supervised fuzz " ^ name) baseline outcome;
      Alcotest.(check bool)
        (name ^ ": fault was actually injected")
        true
        (not (Atomic.get armed));
      Alcotest.(check bool)
        (name ^ ": ledger records the failure")
        true
        (List.length (Checkpoint.ledger_of ckpt) >= 1))
    supervision_modes

let test_fuzz_poisoned_ticket () =
  (* a property that raises on every run of one trial index: the
     retry fails too, so the campaign flushes and re-raises.  The
     property learns the index from [on_trial], which runs just before
     it in the same domain. *)
  let trials = 300 and poisoned = 37 in
  let poisoned_count () =
    Metrics.value (Metrics.counter "fuzz.tickets_poisoned")
  in
  List.iter
    (fun ((domains, coverage) as mode) ->
      let name = mode_name mode in
      let current = Domain.DLS.new_key (fun () -> -1) in
      let on_trial i _ = Domain.DLS.set current i in
      let poison _run =
        if Domain.DLS.get current = poisoned then failwith "poisoned trial";
        None
      in
      let cfg =
        with_property { fuzz_cfg_clean with Sim.Fuzz.coverage } "poison" poison
      in
      with_tmp ".ckpt" (fun path ->
          let ckpt = Checkpoint.ctl ~sink:(sink ~path ~kind:"fuzz") () in
          let before = poisoned_count () in
          (match FK2.run ~on_trial ~domains ~ckpt cfg ~seed:7 ~trials with
          | _ -> Alcotest.fail (name ^ ": a poisoned campaign must raise")
          | exception Failure msg ->
              Alcotest.(check string)
                (name ^ ": re-raised") "poisoned trial" msg);
          Alcotest.(check bool)
            (name ^ ": ledger holds a non-requeued entry")
            true
            (List.exists
               (fun (e : Checkpoint.ledger_entry) -> e.Checkpoint.requeued = 0)
               (Checkpoint.ledger_of ckpt));
          Alcotest.(check bool)
            (name ^ ": poisoned campaign flushed a checkpoint")
            true (Sys.file_exists path);
          let _, wm =
            resume_fuzz ~cfg:{ fuzz_cfg_clean with Sim.Fuzz.coverage } ~trials
              (Checkpoint.payload (load_restored path))
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: watermark %d <= poisoned trial" name wm)
            true (wm <= poisoned);
          Alcotest.(check bool)
            (name ^ ": fuzz.tickets_poisoned went up")
            true
            (poisoned_count () > before)))
    supervision_modes

(* ---------- budget expiry flushes ----------

   A wall-clock budget (--max-seconds) ends a campaign through the
   interrupt poll, and must flush a final checkpoint: previously the
   drivers returned Budget_exhausted without writing, so an expiry
   lost the whole campaign's watermark. *)

let test_fuzz_seq_stop_flush () =
  let trials = 600 in
  let baseline = FK2.run fuzz_cfg_clean ~seed:7 ~trials in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"fuzz")
          ~interrupt:(poll_interrupt 150) ()
      in
      (match FK2.run ~ckpt fuzz_cfg_clean ~seed:7 ~trials with
      | Sim.Fuzz.Budget_exhausted { trials = t } ->
          (* one interrupt poll per trial boundary: the count is exact *)
          Alcotest.(check int) "stopped at the poll budget" 150 t
      | _ -> Alcotest.fail "stopped fuzz should be Budget_exhausted");
      Alcotest.(check bool) "stop expiry flushed a checkpoint" true
        (Sys.file_exists path);
      let t = load_restored path in
      let resumed, watermark = resume_fuzz ~trials (Checkpoint.payload t) in
      Alcotest.(check int) "flushed watermark = reported trials" 150 watermark;
      check_fuzz_equal "fuzz seq stop resume" baseline resumed)

let test_fuzz_par_stop_flush () =
  let trials = 600 in
  let baseline = FK2.run fuzz_cfg_clean ~seed:7 ~trials in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"fuzz")
          ~interrupt:(poll_interrupt 100) ()
      in
      let reported =
        match FK2.run_par ~domains:2 ~ckpt fuzz_cfg_clean ~seed:7 ~trials with
        | Sim.Fuzz.Budget_exhausted { trials = t } -> t
        | _ -> Alcotest.fail "stopped par fuzz should be Budget_exhausted"
      in
      Alcotest.(check bool) "stop expiry flushed a checkpoint" true
        (Sys.file_exists path);
      let t = load_restored path in
      (* which trials ran is timing-dependent, but the reported count
         must be exactly the flushed clean-trial watermark — not a
         racy ticket count that can claim unfinished work *)
      let resumed, watermark = resume_fuzz ~trials (Checkpoint.payload t) in
      Alcotest.(check int) "reported trials = flushed watermark" reported
        watermark;
      check_fuzz_equal "fuzz par stop resume (seq)" baseline resumed;
      check_fuzz_equal "fuzz par stop resume (par)" baseline
        (FK2.run_par ~domains:2
           ~resume_payload:(Checkpoint.payload t)
           fuzz_cfg_clean ~seed:7 ~trials))

(* ---------- a fault that leaves a multi-domain driver ----------

   The interrupt poll raises once, on its [n]th call or the first one
   after it from the chosen side: the calling domain or a spawned one.
   The driver must stop its other workers, join every domain it spawned
   and re-raise.  Once it has returned nothing it started may run on,
   which a live counter that stays put for 50 ms shows. *)

exception Poll_fault

let raise_on_poll ~caller n =
  let me = Domain.self () in
  let polls = Atomic.make 0 and fired = Atomic.make false in
  fun () ->
    if
      Atomic.fetch_and_add polls 1 >= n
      && (Domain.self () = me) = caller
      && Atomic.compare_and_set fired false true
    then raise Poll_fault;
    false

let check_raises_then_quiet name ~counter run =
  (match run () with
  | _ -> Alcotest.fail (name ^ ": a raising poll must leave the driver")
  | exception Poll_fault -> ());
  let c = Metrics.counter counter in
  let before = Metrics.value c in
  Unix.sleepf 0.05;
  Alcotest.(check int) (name ^ ": " ^ counter ^ " stays put") before
    (Metrics.value c)

let test_fuzz_fault_joins () =
  List.iter
    (fun caller ->
      let ckpt = Checkpoint.ctl ~interrupt:(raise_on_poll ~caller 200) () in
      check_raises_then_quiet
        (Printf.sprintf "fuzz d=2, %s poll raises"
           (if caller then "caller's" else "spawned"))
        ~counter:"fuzz.trials"
        (fun () ->
          FK2.run ~domains:2 ~ckpt fuzz_cfg_clean ~seed:7 ~trials:1_000_000))
    [ true; false ]

let test_explore_fault_joins () =
  (* at two domains the coordinator domain polls; its fault must stop
     the workers, not wait for them to finish the space *)
  let module Ex = Sim.Explorer.Make (K2) in
  let run ?ckpt () =
    Ex.explore_with_crashes ~domains:2 ?ckpt ~n:4 ~inputs:(distinct 4)
      ~crash_budget:1 ~check:no_check ()
  in
  let admitted = Metrics.counter "explore.admitted" in
  let full =
    let before = Metrics.value admitted in
    ignore (run ());
    Metrics.value admitted - before
  in
  let before = Metrics.value admitted in
  let ckpt = Checkpoint.ctl ~interrupt:(raise_on_poll ~caller:false 2) () in
  check_raises_then_quiet "explore-crash d=2" ~counter:"explore.admitted"
    (fun () -> run ~ckpt ());
  Alcotest.(check bool) "the fault cut the search short" true
    (Metrics.value admitted - before < full)

(* ---------- coverage (greybox) campaigns ---------- *)

let fuzz_cfg_cov = { fuzz_cfg_clean with Sim.Fuzz.coverage = true }

(* kset-flp with L=2 at n=4 violates 1-agreement only on rare
   near-partition schedules; under coverage guidance seed 3 reaches
   one within a few hundred trials *)
let fuzz_cfg_cov_violating =
  { (Sim.Fuzz.default_config ~k:1 ~n:4 ()) with Sim.Fuzz.coverage = true }

let test_fuzz_cov_resume () =
  let trials = 5000 in
  let baseline, base_cov = FK2.campaign fuzz_cfg_cov_violating ~seed:3 ~trials in
  let vtrial =
    match baseline with
    | Sim.Fuzz.Violation_found v -> v.Sim.Fuzz.trial
    | _ -> Alcotest.fail "expected a violating coverage baseline"
  in
  (* the campaign is cut half way to its violation, which must leave
     at least one folded corpus epoch (16 trials) behind the cut *)
  let cut = vtrial / 2 in
  Alcotest.(check bool) "violation late enough to cut before it" true
    (cut > 16);
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl ~sink:(sink ~path ~kind:"fuzz")
          ~interrupt:(poll_interrupt cut) ()
      in
      (match FK2.run ~ckpt fuzz_cfg_cov_violating ~seed:3 ~trials with
      | Sim.Fuzz.Budget_exhausted { trials = t } ->
          Alcotest.(check bool) "cut mid-campaign" true (t > 0 && t < vtrial)
      | _ -> Alcotest.fail "interrupted coverage fuzz should be Budget_exhausted");
      let t = load_restored path in
      let payload = Checkpoint.payload t in
      (* the resumed campaign regrows the identical corpus from the
         one the payload carries, and finds the identical violation,
         shrink included, on either driver *)
      let resumed, cov =
        FK2.campaign ~resume_payload:payload fuzz_cfg_cov_violating ~seed:3
          ~trials
      in
      check_fuzz_equal "coverage resume (seq)" baseline resumed;
      check_coverage_equal "coverage resume (seq)" base_cov cov;
      check_fuzz_equal "coverage resume (par)" baseline
        (FK2.run_par ~domains:2 ~resume_payload:payload fuzz_cfg_cov_violating
           ~seed:3 ~trials))

let test_fuzz_cov_corpus_identical () =
  (* two campaigns cut at the same watermark — one uninterrupted, one
     killed at trial 120 and resumed — must hold bit-identical
     coverage state: same id/pair counts, same corpus entries in the
     same admission order *)
  let ckpt ~path stop_after =
    Checkpoint.ctl ~sink:(sink ~path ~kind:"fuzz")
      ~interrupt:(poll_interrupt stop_after) ()
  in
  let cut name ~at = function
    | Sim.Fuzz.Budget_exhausted { trials = t }, cov ->
        Alcotest.(check int) (Printf.sprintf "%s stopped at %d" name at) at t;
        cov
    | _ -> Alcotest.fail (name ^ " should stop")
  in
  with_tmp ".ckpt" (fun path_a ->
      with_tmp ".ckpt" (fun path_b ->
          let sa =
            cut "A" ~at:200
              (FK2.campaign ~ckpt:(ckpt ~path:path_a 200) fuzz_cfg_cov ~seed:7
                 ~trials:600)
          in
          ignore
            (cut "B" ~at:120
               (FK2.campaign ~ckpt:(ckpt ~path:path_b 120) fuzz_cfg_cov
                  ~seed:7 ~trials:600));
          let pb_cut = Checkpoint.payload (load_restored path_b) in
          let sb =
            cut "B resumed" ~at:200
              (FK2.campaign ~ckpt:(ckpt ~path:path_b 80) ~resume_payload:pb_cut
                 fuzz_cfg_cov ~seed:7 ~trials:600)
          in
          check_coverage_equal "A vs B resumed" sa sb;
          (* the two checkpoints flushed at watermark 200 carry the
             same coverage: resuming either at its own watermark runs
             no trial and returns the payload's state as it stands *)
          let flushed path =
            snd
              (FK2.campaign
                 ~resume_payload:(Checkpoint.payload (load_restored path))
                 fuzz_cfg_cov ~seed:7 ~trials:200)
          in
          let fa = flushed path_a and fb = flushed path_b in
          check_coverage_equal "A vs B flushed" fa fb;
          check_coverage_equal "A flushed vs A" sa fa))

(* ---------- periodic item-based checkpoints ---------- *)

let test_periodic_item_checkpoints () =
  (* an items cadence writes along the way even without interruption,
     and the last write is still a valid resume point *)
  let module Ex = Sim.Explorer.Make (K2) in
  let baseline = crash_baseline () in
  with_tmp ".ckpt" (fun path ->
      let ckpt =
        Checkpoint.ctl
          ~sink:
            {
              Checkpoint.path;
              kind = "explore-crash";
              fingerprint = "test";
              policy =
                { Checkpoint.every_items = 500; every_seconds = infinity };
            }
          ()
      in
      (match
         Ex.explore_with_crashes ~ckpt ~n:3 ~inputs:(distinct 3)
           ~crash_budget:1 ~check:no_check ()
       with
      | Sim.Explorer.Stuck _ -> ()
      | _ -> Alcotest.fail "expected Stuck");
      Alcotest.(check bool) "periodic checkpoint written" true
        (Sys.file_exists path);
      let t = load_restored path in
      check_stuck "resume from periodic checkpoint" baseline
        (Ex.explore_with_crashes ~resume:(Checkpoint.payload t) ~n:3
           ~inputs:(distinct 3) ~crash_budget:1 ~check:no_check ()))

(* ---------- Faultsim: a crash at every write-path instant ---------- *)

module Faultsim = Prim.Faultsim

let outcome_name = function
  | Faultsim.Crash -> "crash"
  | Faultsim.Errno e -> "errno:" ^ Unix.error_message e
  | Faultsim.Torn n -> Printf.sprintf "torn:%d" n

(* positions in a trace, as (point, nth-hit-of-that-point) pairs — the
   coordinates [Faultsim.arm] addresses *)
let trace_positions trace =
  let seen = Hashtbl.create 8 in
  List.map
    (fun p ->
      let n = 1 + (Option.value ~default:0 (Hashtbl.find_opt seen p)) in
      Hashtbl.replace seen p n;
      (p, n))
    trace

let test_faultsim_durable_sweep () =
  (* the atomicity claim is over "a crash at any instant": enumerate
     every instrumented instant of one framed write and crash (or
     fail, or tear) at each — the file must always read back as the
     old payload or the new payload, complete, never torn *)
  with_tmp ".rec" (fun path ->
      Fun.protect ~finally:Faultsim.reset (fun () ->
          let magic = "KSATEST1" in
          let old_payload = String.make 400 'a' in
          let new_payload =
            String.init 700 (fun i -> Char.chr (33 + (i mod 90)))
          in
          let write p = Durable.write_framed ~path ~magic ~version:1 p in
          ok_or_fail (write old_payload);
          Faultsim.record ();
          ok_or_fail (write new_payload);
          let trace = Faultsim.trace () in
          Faultsim.reset ();
          List.iter
            (fun p ->
              Alcotest.(check bool) (p ^ " traced") true (List.mem p trace))
            [
              "durable.open"; "durable.write"; "durable.fsync";
              "durable.rename"; "durable.after-rename";
            ];
          List.iter
            (fun (point, nth) ->
              List.iter
                (fun outcome ->
                  let name =
                    Printf.sprintf "%s#%d %s" point nth (outcome_name outcome)
                  in
                  ok_or_fail (write old_payload);
                  Faultsim.arm ~point ~nth outcome;
                  let fired =
                    match write new_payload with
                    | exception Faultsim.Crashed _ -> true
                    | Error _ -> true (* errno surfaced as Durable's Error *)
                    | Ok () -> false
                  in
                  Faultsim.reset ();
                  Alcotest.(check bool) (name ^ ": fault fired") true fired;
                  match Durable.read_framed ~path ~magic with
                  | Error e ->
                      Alcotest.fail
                        (Printf.sprintf "%s: unreadable after fault: %s" name
                           e)
                  | Ok (_, back) ->
                      Alcotest.(check bool)
                        (name ^ ": old- or new-complete")
                        true
                        (back = old_payload || back = new_payload))
                [ Faultsim.Crash; Faultsim.Errno Unix.ENOSPC; Faultsim.Torn 7 ])
            (trace_positions trace);
          (* stale tmp siblings left by the simulated deaths must not
             stop the next clean write *)
          ok_or_fail (write new_payload);
          try Sys.remove (path ^ ".tmp") with Sys_error _ -> ()))

(* A campaign the checkpoint sweep can crash: its sink kind and its
   run, reduced to a verdict label and stats *)
type sweep_engine = {
  kind : string;
  go :
    ckpt:Checkpoint.ctl option ->
    resume:string option ->
    string * Sim.Explorer.stats;
}

let sweep_engines =
  let module Ex = Sim.Explorer.Make (K2) in
  [
    {
      kind = "explore";
      go =
        (fun ~ckpt ~resume ->
          match
            Ex.explore ?ckpt ?resume ~n:3 ~inputs:(distinct 3)
              ~pattern:(FP.none ~n:3) ~check:no_check ()
          with
          | Sim.Explorer.Safe s -> ("safe", s)
          | Sim.Explorer.Violation _ ->
              Alcotest.fail "explore: unexpected violation");
    };
    {
      kind = "explore-crash";
      go =
        (fun ~ckpt ~resume ->
          match
            Ex.explore_with_crashes ~domains:1 ?ckpt ?resume
              ~policy:Sim.Explorer.Empty_or_all ~n:3 ~inputs:(distinct 3)
              ~crash_budget:1 ~check:no_check ()
          with
          | Sim.Explorer.Stuck { crashed; undecided_correct; stats } ->
              let pids l = String.concat "," (List.map string_of_int l) in
              (Printf.sprintf "stuck {%s}/{%s}" (pids crashed)
                 (pids undecided_correct), stats)
          | Sim.Explorer.All_paths_decide s -> ("all-paths-decide", s)
          | Sim.Explorer.Indeterminate s -> ("indeterminate", s)
          | Sim.Explorer.Safety_violation _ ->
              Alcotest.fail "explore-crash: unexpected violation");
    };
  ]

let test_faultsim_checkpoint_sweep () =
  (* the same sweep one layer up: crash a campaign at every instant of
     its periodic checkpoint flush, for the crash-free explorer and for
     the crash explorer on one domain, whose worker writes its own
     checkpoints (the coarse policy keeps its stuck space small).
     Whatever survives on disk must load as a valid checkpoint and
     resume to the bit-identical verdict — and an errno-failed flush
     must not abort the campaign *)
  List.iter
    (fun { kind; go } ->
      let baseline_verdict, baseline = go ~ckpt:None ~resume:None in
      let run_campaign ~path () =
        let ckpt =
          Checkpoint.ctl
            ~sink:
              {
                Checkpoint.path;
                kind;
                fingerprint = "test";
                policy =
                  { Checkpoint.every_items = 50; every_seconds = infinity };
              }
            ()
        in
        go ~ckpt:(Some ckpt) ~resume:None
      in
      with_tmp ".ckpt" (fun path ->
          Fun.protect ~finally:Faultsim.reset (fun () ->
              (* seed the old-complete state and learn the flush trace *)
              ignore (run_campaign ~path ());
              Faultsim.record ();
              ok_or_fail (Durable.write_atomic ~path:(path ^ ".probe") "x");
              let write_trace = Faultsim.trace () in
              Faultsim.reset ();
              (try Sys.remove (path ^ ".probe") with Sys_error _ -> ());
              List.iter
                (fun (point, nth) ->
                  List.iter
                    (fun outcome ->
                      let name =
                        Printf.sprintf "%s flush %s#%d %s" kind point nth
                          (outcome_name outcome)
                      in
                      Faultsim.arm ~point ~nth outcome;
                      let crashed =
                        match run_campaign ~path () with
                        | verdict, _ ->
                            Alcotest.(check string)
                              (name ^ ": verdict") baseline_verdict verdict;
                            false
                        | exception Faultsim.Crashed _ -> true
                      in
                      Faultsim.reset ();
                      (* ENOSPC on a flush is survivable by design: the
                         campaign warns and finishes *)
                      (match outcome with
                      | Faultsim.Errno _ ->
                          Alcotest.(check bool)
                            (name ^ ": campaign survives errno")
                            false crashed
                      | Faultsim.Crash | Faultsim.Torn _ ->
                          Alcotest.(check bool) (name ^ ": campaign died")
                            true crashed);
                      (* whatever the crash left behind resumes to the
                         same verdict and stats *)
                      let t = load_restored path in
                      let verdict, stats =
                        go ~ckpt:None ~resume:(Some (Checkpoint.payload t))
                      in
                      Alcotest.(check string)
                        (name ^ ": resume verdict") baseline_verdict verdict;
                      check_stats (name ^ ": resume parity") baseline stats)
                    [
                      Faultsim.Crash;
                      Faultsim.Errno Unix.ENOSPC;
                      Faultsim.Torn 3;
                    ])
                (trace_positions write_trace))))
    sweep_engines

(* ---------- a payload of the other driver starts fresh ---------- *)

let cut_fuzz_payload () =
  cut_payload ~kind:"fuzz" ~polls:150 (fun ckpt ->
      match FK2.run ~ckpt fuzz_cfg_cov ~seed:7 ~trials:600 with
      | Sim.Fuzz.Budget_exhausted _ -> ()
      | _ -> Alcotest.fail "the fuzz campaign should have been cut")

let test_explore_payload_in_fuzz () =
  (* a fuzz campaign handed an explorer payload (of either engine)
     names the engine that wrote it and runs every trial from 0; the
     decoders read nothing from it *)
  let trials = 200 in
  List.iter
    (fun (engine, payload) ->
      let ran = Atomic.make 0 in
      let on_trial _ _ = Atomic.incr ran in
      let (outcome, cov), err =
        with_stderr (fun () ->
            FK2.campaign ~on_trial ~resume_payload:payload fuzz_cfg_cov
              ~seed:7 ~trials)
      in
      let fresh, fresh_cov = FK2.campaign fuzz_cfg_cov ~seed:7 ~trials in
      check_fuzz_equal (engine ^ " payload resumed by fuzz") fresh outcome;
      (* no corpus was read from the payload *)
      check_coverage_equal (engine ^ " payload resumed by fuzz") fresh_cov cov;
      Alcotest.(check int) (engine ^ ": every trial ran") trials (Atomic.get ran);
      check_contains (engine ^ ": warning") err
        ~sub:
          (Printf.sprintf
             "ksa: checkpoint was written under engine %s, not fuzz — \
              starting a fresh campaign\n"
             engine))
    [
      ( "explore",
        cut_payload ~kind:"explore" ~polls:40 (fun ckpt ->
            ignore (explore_run ~ckpt ~domains:1 ())) );
      ( "explore-crash",
        cut_payload ~kind:"explore-crash" ~polls:2000 (fun ckpt ->
            ignore (indeterminate "cut" (crash_run ~ckpt ~domains:1 ()))) );
    ]

let test_fuzz_payload_in_explore () =
  (* and the other way round: both explorer engines reach their fresh
     baselines *)
  let payload = cut_fuzz_payload () in
  let stats, err =
    with_stderr (fun () -> explore_run ~resume:payload ~domains:1 ())
  in
  check_stats "fuzz payload resumed by explore" (explore_run ~domains:1 ())
    stats;
  check_contains "explore warning" err
    ~sub:
      "ksa: checkpoint was written under engine fuzz, not explore — starting \
       a fresh campaign\n";
  let outcome, err =
    with_stderr (fun () -> crash_run ~resume:payload ~domains:1 ())
  in
  check_stuck "fuzz payload resumed by explore_with_crashes"
    (crash_baseline ()) outcome;
  check_contains "explore-crash warning" err
    ~sub:
      "ksa: checkpoint was written under engine fuzz, not explore-crash — \
       starting a fresh campaign\n"

let suites =
  [
    ( "checkpoint",
      [
        Alcotest.test_case "durable: atomic write roundtrip" `Quick
          test_atomic_roundtrip;
        Alcotest.test_case "durable: write error names path" `Quick
          test_atomic_write_error;
        Alcotest.test_case "durable: framed roundtrip" `Quick
          test_framed_roundtrip;
        Alcotest.test_case "durable: truncated record detected" `Quick
          test_framed_truncated;
        Alcotest.test_case "durable: bit flip detected (CRC)" `Quick
          test_framed_bitflip;
        Alcotest.test_case "durable: wrong magic detected" `Quick
          test_framed_bad_magic;
        Alcotest.test_case "durable: crc32 test vector" `Quick test_crc32_vector;
        Alcotest.test_case "clock: monotonic and sane" `Quick
          test_clock_monotonic;
        Alcotest.test_case "load: missing file is Error" `Quick
          test_load_missing;
        Alcotest.test_case "load: unsupported version is Error" `Quick
          test_load_wrong_version;
        Alcotest.test_case "load: garbage body is Error" `Quick
          test_load_garbage_body;
        Alcotest.test_case "resume: a v13 explore checkpoint starts fresh"
          `Quick test_explore_v13_frame;
        Alcotest.test_case "ctl: a raising hook releases the lock" `Quick
          test_raising_hook_unlocks;
        Alcotest.test_case "explore-crash: kill/resume parity (seq)" `Quick
          test_explore_crash_seq_resume;
        Alcotest.test_case "explore-crash: kill/resume parity (par)" `Quick
          test_explore_crash_par_resume;
        Alcotest.test_case "explore-crash: one-domain order is pinned" `Quick
          test_crash_one_domain_order;
        Alcotest.test_case "explore-crash: truncated kill/resume at d=1"
          `Quick test_crash_one_domain_truncated_resume;
        Alcotest.test_case "explore-crash: d=2 cut resumed at d=2" `Quick
          test_crash_two_domain_resume;
        Alcotest.test_case "explore: kill/resume parity across domain counts"
          `Quick test_explore_resume_domains;
        Alcotest.test_case "explore: truncated kill/resume at d=1" `Quick
          test_explore_one_domain_truncated_resume;
        Alcotest.test_case "explore: cut with a pending orphan resumes" `Quick
          test_explore_orphan_cut;
        Alcotest.test_case "explore-crash: kill/resume parity under sym"
          `Quick test_explore_crash_resume_reduced;
        Alcotest.test_case "resume: reduction-mode mismatch starts fresh"
          `Quick test_resume_reduction_mismatch;
        Alcotest.test_case "resume: crash payload in explore starts fresh"
          `Quick test_crash_payload_in_explore;
        Alcotest.test_case "resume: explore payload in explore-crash starts \
                            fresh"
          `Quick test_explore_payload_in_crash;
        Alcotest.test_case "explore: worker fault supervised" `Quick
          test_explore_par_supervision;
        Alcotest.test_case "explore: worker fault supervised (plain par)"
          `Quick test_explore_par_plain_supervision;
        Alcotest.test_case "fuzz: kill/resume parity (seq)" `Quick
          test_fuzz_seq_resume;
        Alcotest.test_case "fuzz: kill/resume parity (par)" `Quick
          test_fuzz_par_resume;
        Alcotest.test_case "fuzz: violation survives resume" `Quick
          test_fuzz_violation_resume;
        Alcotest.test_case "fuzz: worker fault supervised" `Quick
          test_fuzz_par_supervision;
        Alcotest.test_case "fuzz: poisoned trial flushes and raises" `Quick
          test_fuzz_poisoned_ticket;
        Alcotest.test_case "fuzz: stop expiry flushes (seq)" `Quick
          test_fuzz_seq_stop_flush;
        Alcotest.test_case "fuzz: stop expiry flushes (par)" `Quick
          test_fuzz_par_stop_flush;
        Alcotest.test_case "fuzz: coverage kill/resume parity" `Quick
          test_fuzz_cov_resume;
        Alcotest.test_case "fuzz: coverage corpus survives kill/resume" `Quick
          test_fuzz_cov_corpus_identical;
        Alcotest.test_case "periodic item checkpoints resume" `Quick
          test_periodic_item_checkpoints;
        Alcotest.test_case "faultsim: durable write crash-point sweep" `Quick
          test_faultsim_durable_sweep;
        Alcotest.test_case "faultsim: checkpoint flush crash-point sweep"
          `Quick test_faultsim_checkpoint_sweep;
        Alcotest.test_case "resume: explore payload in fuzz starts fresh"
          `Quick test_explore_payload_in_fuzz;
        Alcotest.test_case "resume: fuzz payload in explore starts fresh"
          `Quick test_fuzz_payload_in_explore;
        Alcotest.test_case "fuzz: a raising poll joins every domain" `Quick
          test_fuzz_fault_joins;
        Alcotest.test_case "explore-crash: a raising poll joins every domain"
          `Quick test_explore_fault_joins;
      ] );
  ]
