(* The real ksa binary, driven as a user drives it: every explore and
   fuzz verdict line with its exit code (the lines the campaign daemon
   also stores as a job's [result.detail]), the shared campaign front
   (--checkpoint-every, --resume, --strict-resume), and the named
   errors every malformed argument must produce instead of an uncaught
   exception.  The binary sits next to this test executable's
   directory, at [../bin/ksa.exe]. *)

let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "ksa.exe")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* run [ksa args] with stdin closed; (exit code, stdout, stderr) *)
let ksa args =
  if not (Sys.file_exists exe) then
    Alcotest.failf "%s is not built (dune build bin/ksa.exe)" exe;
  let out = Filename.temp_file "ksa_cli" ".out" in
  let err = Filename.temp_file "ksa_cli" ".err" in
  let open_w p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fd_out = open_w out and fd_err = open_w err in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) fd_in fd_out fd_err
  in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  let _, status = Unix.waitpid [] pid in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  match status with
  | Unix.WEXITED c -> (c, stdout, stderr)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Alcotest.failf "ksa %s: killed by signal %d" (String.concat " " args) s

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* stdout byte-identical, exit code identical *)
let expect args ~code ~lines =
  let c, out, err = ksa args in
  let name = String.concat " " args in
  Alcotest.(check string)
    (name ^ ": stdout")
    (String.concat "" (List.map (fun l -> l ^ "\n") lines))
    out;
  Alcotest.(check int) (Printf.sprintf "%s: exit (stderr %S)" name err) code c

(* a malformed argument: a named error on stderr that quotes [names],
   nothing on stdout, exit 1 *)
let expect_error args ~names =
  let c, out, err = ksa args in
  let name = String.concat " " args in
  Alcotest.(check int) (Printf.sprintf "%s: exit (stderr %S)" name err) 1 c;
  Alcotest.(check string) (name ^ ": stdout") "" out;
  Alcotest.(check bool)
    (Printf.sprintf "%s: stderr %S names %S" name err names)
    true (contains ~sub:names err)

let flp = [ "explore"; "--algo"; "kset-flp"; "-n"; "3"; "-l"; "2"; "-k"; "1" ]

let test_explore_safe () =
  expect flp ~code:0 ~lines:[ "SAFE: 4930 configs visited, 601 terminal runs" ]

(* A truncated run's stats depend on the order configurations are
   visited in: besides the default domain count, one domain at several
   budgets and reductions pins the crash-free engine's order. *)
let test_explore_truncated () =
  let truncated ~configs ~terminals =
    Printf.sprintf
      "INDETERMINATE: no violation in the explored prefix, but the budget \
       truncated the search — %d configs visited, %d terminal runs (budget \
       exhausted)"
      configs terminals
  in
  expect
    (flp @ [ "--max-configs"; "50" ])
    ~code:4
    ~lines:[ truncated ~configs:50 ~terminals:22 ];
  List.iter
    (fun (reduction, configs, terminals) ->
      expect
        (flp
        @ [ "--domains"; "1"; "--reduction"; reduction ]
        @ [ "--max-configs"; string_of_int configs ])
        ~code:4
        ~lines:[ truncated ~configs ~terminals ])
    [
      ("none", 500, 94);
      ("none", 2000, 268);
      ("sym", 500, 29);
      ("sym", 2000, 74);
      ("sym+por", 500, 29);
      ("sym+por", 2000, 57);
    ]

let test_explore_stuck () =
  expect
    (flp @ [ "--crash-budget"; "1" ])
    ~code:3
    ~lines:
      [
        "STUCK: crashes {p0} strand {p1,p2} undecided — 19654 configs \
         visited, 4283 terminal runs";
      ]

(* the same for the crash engine, under each fault model (Byzantine at
   k=3: at k=1 it reports a violation) *)
let test_explore_crash_truncated () =
  let truncated ~configs ~terminals =
    Printf.sprintf
      "INDETERMINATE: the budget truncated the search before the reachable \
       graph closed — %d configs visited, %d terminal runs (budget \
       exhausted)"
      configs terminals
  in
  expect
    (flp @ [ "--crash-budget"; "1"; "--max-configs"; "50" ])
    ~code:4
    ~lines:[ truncated ~configs:50 ~terminals:3 ];
  let k3 =
    [ "explore"; "--algo"; "kset-flp"; "-n"; "3"; "-l"; "2"; "-k"; "3" ]
  in
  List.iter
    (fun (base, model, configs, terminals) ->
      expect
        (base
        @ [ "--domains"; "1"; "--crash-budget"; "1"; "--model"; model ]
        @ [ "--max-configs"; string_of_int configs ])
        ~code:4
        ~lines:[ truncated ~configs ~terminals ])
    [
      (flp, "crash", 500, 192);
      (flp, "crash", 5000, 1248);
      (flp, "mobile:1", 500, 97);
      (flp, "mobile:1", 5000, 460);
      (k3, "byzantine", 500, 162);
      (k3, "byzantine", 5000, 1794);
    ]

let test_explore_byzantine () =
  expect
    (flp @ [ "--model"; "byzantine" ])
    ~code:2
    ~lines:[ "VIOLATION: 2 distinct decisions exceed k=1" ]

let test_explore_violation () =
  expect
    [ "explore"; "--algo"; "trivial"; "-n"; "3"; "-k"; "1" ]
    ~code:2
    ~lines:[ "VIOLATION at depth 2: 2 distinct decisions exceed k=1" ]

(* each explorability error the binary can reach: nothing on stdout,
   the error word for word on stderr, exit 1.  The explorer's three
   checks (a crash after time 0 needs a pattern the command line cannot
   build: "sim.explorer rejects late crashes" pins it) and the failure
   pattern's refusal of a crash-free campaign's dead pid. *)
let test_not_explorable () =
  List.iter
    (fun (args, line) ->
      let args = [ "explore"; "-k"; "1" ] @ args in
      let c, out, err = ksa args in
      let name = String.concat " " args in
      Alcotest.(check string) (name ^ ": stdout") "" out;
      Alcotest.(check string) (name ^ ": stderr") (line ^ "\n") err;
      Alcotest.(check int) (name ^ ": exit") 1 c)
    [
      ( [ "--algo"; "synod"; "-n"; "3" ],
        "not explorable: Explorer: algorithms with failure detectors are \
         unsupported" );
      ( [ "--algo"; "synod"; "-n"; "3"; "--crash-budget"; "1" ],
        "not explorable: Explorer: algorithms with failure detectors are \
         unsupported" );
      ( [ "--algo"; "kset-flp"; "-n"; "62" ],
        "not explorable: Explorer: system too large for crash-set bitmasks" );
      ( [ "--algo"; "kset-flp"; "-n"; "3"; "--dead"; "7"; "--crash-budget"; "1" ],
        "not explorable: Explorer: initially_dead pid out of range" );
      ( [ "--algo"; "kset-flp"; "-n"; "3"; "--dead"; "7" ],
        "not explorable: Failure_pattern: invalid pid" );
    ]

let trivial_fuzz = [ "fuzz"; "--algo"; "trivial"; "-n"; "3"; "-k"; "1" ]

let with_schedule f =
  let path = Filename.temp_file "ksa_cli" ".sched" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_fuzz_violation_and_replay () =
  with_schedule (fun path ->
      expect
        (trivial_fuzz
        @ [ "--seed"; "7"; "--trials"; "50"; "--save-schedule"; path ])
        ~code:2
        ~lines:
          [
            "VIOLATION at trial 0 (1-agreement): 3 distinct decided values, \
             k = 1";
            "schedule: 3 steps, shrunk to 2 (1-minimal, 7 candidate replays)";
            "shrunk schedule written to " ^ path;
          ];
      expect
        (trivial_fuzz @ [ "--replay"; path ])
        ~code:2
        ~lines:[ "VIOLATION (1-agreement): 2 distinct decided values, k = 1" ])

let flp_fuzz =
  [ "fuzz"; "--algo"; "kset-flp"; "-n"; "3"; "-l"; "2"; "-k"; "1" ]
  @ [ "--max-crashes"; "1"; "--seed"; "7" ]

let test_fuzz_coverage_clean () =
  expect
    (flp_fuzz @ [ "--coverage"; "--trials"; "200" ])
    ~code:0
    ~lines:
      [
        "CLEAN: 200 trials, no violation";
        "coverage: 286 state ids, 482 transition pairs, corpus 127";
      ]

(* A schedule the replay cannot take to its end is refused with the
   first step it could not take, by both replaying commands; it is
   never judged on the prefix that ran. *)
let test_replay_unfinished () =
  with_schedule (fun path ->
      let write text =
        Out_channel.with_open_bin path (fun oc -> output_string oc text)
      in
      let replays =
        [
          trivial_fuzz @ [ "--replay"; path ];
          [ "simulate"; "--algo"; "trivial"; "-n"; "3"; "--replay"; path ];
        ]
      in
      List.iter
        (fun (text, names) ->
          write text;
          List.iter (fun args -> expect_error args ~names) replays)
        [
          ( "# ksa schedule v1\n0:\n1: 0.3\n",
            "step 2: p1 has no pending message from p0 #3" );
          ("# ksa schedule v1\n7:\n", "step 1: p7 cannot take a step");
        ])

(* Fuzz trials supply no failure-detector history: an algorithm that
   queries one is refused by name, never run into an uncaught
   exception. *)
let test_fuzz_refuses_fd () =
  expect_error
    [ "fuzz"; "--algo"; "synod"; "-n"; "3"; "-k"; "1"; "--max-crashes"; "1";
      "--trials"; "300"; "--seed"; "4" ]
    ~names:"cannot fuzz synod: it queries a failure detector"

let test_fuzz_budget () =
  let c, out, _ =
    ksa (flp_fuzz @ [ "--trials"; "100000000"; "--max-seconds"; "0.2" ])
  in
  let prefix = "BUDGET EXHAUSTED:" in
  Alcotest.(check string)
    "stdout prefix" prefix
    (String.sub out 0 (min (String.length out) (String.length prefix)));
  Alcotest.(check int) "exit" 4 c

let test_bad_checkpoint_every () =
  let dir = Filename.temp_file "ksa_cli" ".dir" in
  Sys.remove dir;
  List.iter
    (fun args ->
      expect_error
        (args @ [ "--checkpoint-every"; "0s" ])
        ~names:"bad --checkpoint-every \"0s\"")
    [ flp; trivial_fuzz; [ "serve"; "--dir"; dir ] ];
  Alcotest.(check bool) "serve made no directory" false (Sys.file_exists dir)

let test_bad_domains () =
  let dir = Filename.temp_file "ksa_cli" ".dir" in
  Sys.remove dir;
  List.iter
    (fun d ->
      List.iter
        (fun args ->
          expect_error
            (args @ [ "--domains=" ^ d ])
            ~names:(Printf.sprintf "bad --domains %s" d))
        [
          flp;
          flp @ [ "--crash-budget"; "1" ];
          trivial_fuzz;
          [ "serve"; "--dir"; dir ];
        ])
    [ "0"; "-2" ];
  Alcotest.(check bool) "serve made no directory" false (Sys.file_exists dir)

let test_resume_missing () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "ksa-cli-none" in
  let c, out, err = ksa (flp @ [ "--resume"; missing ]) in
  Alcotest.(check string)
    "lenient: fresh campaign" "SAFE: 4930 configs visited, 601 terminal runs\n"
    out;
  Alcotest.(check int) "lenient: exit" 0 c;
  Alcotest.(check bool)
    "lenient: warned" true
    (contains ~sub:"starting a fresh campaign" err);
  let c, out, err = ksa (flp @ [ "--resume"; missing; "--strict-resume" ]) in
  Alcotest.(check string) "strict: no verdict" "" out;
  Alcotest.(check int) "strict: exit" 5 c;
  Alcotest.(check bool)
    "strict: named" true
    (contains ~sub:"cannot resume (strict)" err)

let test_bad_groups () =
  expect_error
    [ "simulate"; "-n"; "3"; "--adversary"; "partition:0,x|1" ]
    ~names:"\"x\"";
  expect_error [ "simulate"; "-n"; "3"; "--adversary"; "solo:0|y" ] ~names:"\"y\"";
  expect_error [ "paste"; "--groups"; "0|x" ] ~names:"\"x\"";
  expect_error [ "ho"; "-n"; "3"; "--assignment"; "partition:0|x" ] ~names:"\"x\""

let test_bad_family () =
  let indep = [ "independence"; "--algo"; "trivial"; "-n"; "3"; "--family" ] in
  expect_error (indep @ [ "f=x" ]) ~names:"\"f=x\"";
  expect_error (indep @ [ "bogus" ]) ~names:"\"bogus\""

let test_bad_experiment_ids () =
  expect_error [ "experiments"; "--only"; "E99" ] ~names:"E14";
  expect_error [ "experiments"; "--only"; "e1" ] ~names:"\"e1\""

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "explore: safe" `Quick test_explore_safe;
        Alcotest.test_case "explore: truncated prefix" `Quick
          test_explore_truncated;
        Alcotest.test_case "explore: stuck under one crash" `Quick
          test_explore_stuck;
        Alcotest.test_case "explore: truncated crash graph" `Quick
          test_explore_crash_truncated;
        Alcotest.test_case "explore: byzantine violation" `Quick
          test_explore_byzantine;
        Alcotest.test_case "explore: violation at depth" `Quick
          test_explore_violation;
        Alcotest.test_case "fuzz: violation, shrink, replay" `Quick
          test_fuzz_violation_and_replay;
        Alcotest.test_case "fuzz: coverage clean" `Quick
          test_fuzz_coverage_clean;
        Alcotest.test_case "fuzz: wall-clock budget" `Quick test_fuzz_budget;
        Alcotest.test_case "bad --checkpoint-every exits 1" `Quick
          test_bad_checkpoint_every;
        Alcotest.test_case "--domains below 1 exits 1" `Quick test_bad_domains;
        Alcotest.test_case "resume: lenient and strict" `Quick
          test_resume_missing;
        Alcotest.test_case "malformed group lists exit 1" `Quick
          test_bad_groups;
        Alcotest.test_case "malformed families exit 1" `Quick test_bad_family;
        Alcotest.test_case "unknown experiment ids exit 1" `Quick
          test_bad_experiment_ids;
        Alcotest.test_case "explore: not explorable exits 1" `Quick
          test_not_explorable;
        Alcotest.test_case "replay: an unfinished replay exits 1" `Quick
          test_replay_unfinished;
        Alcotest.test_case "fuzz: failure-detector algorithms exit 1" `Quick
          test_fuzz_refuses_fd;
      ] );
  ]
