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
      ("sym", 500, 30);
      ("sym", 2000, 74);
      ("sym+por", 500, 29);
      ("sym+por", 2000, 67);
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

(* Every spec the CLI builds goes through Task.spec_of_json: a value
   the campaign cannot run with, a bad --model or --reduction, and a
   job spec with a misspelt key are refused by name, exit 1, never an
   uncaught exception.  [ksa job submit] checks its spec before it
   dials the daemon, so no daemon is needed here. *)
let test_spec_refusals () =
  let submit spec =
    [ "job"; "submit"; "--addr"; "unix:" ^ Filename.concat
        (Filename.get_temp_dir_name ()) "ksa-cli-no-daemon.sock"; spec ]
  in
  let size = "field \"n\" (--size) must be at least 1, got -3" in
  let quorum v =
    Printf.sprintf
      "kset-flp: field \"l\" (--wait-quorum) must be in 1..3, got %d" v
  in
  let wait = "naive-min: field \"wait\" (--wait-for) must be in 1..3, got 0" in
  List.iter
    (fun (args, names) -> expect_error args ~names)
    [
      ([ "explore"; "--size=-3" ], size);
      ([ "fuzz"; "--size=-3" ], size);
      ([ "explore"; "-n"; "3"; "--wait-quorum"; "0" ], quorum 0);
      ([ "explore"; "-n"; "3"; "--wait-quorum"; "9" ], quorum 9);
      ([ "fuzz"; "-n"; "3"; "--wait-quorum"; "0" ], quorum 0);
      ([ "explore"; "--algo"; "naive-min"; "-n"; "3"; "--wait-for"; "0" ], wait);
      ([ "fuzz"; "-n"; "3"; "--dead=7" ], "field \"dead\": pid 7 is out of range 0..2");
      (* a repeated dead pid, refused for both explore engines alike *)
      (flp @ [ "--dead"; "0,0"; "--crash-budget"; "1" ], "field \"dead\" lists pid 0 twice");
      (flp @ [ "--dead"; "0,0" ], "field \"dead\" lists pid 0 twice");
      ( [ "simulate"; "--wait-quorum"; "0" ],
        "kset-flp: field \"l\" (--wait-quorum) must be in 1..6, got 0" );
      ([ "explore"; "-n"; "3"; "--model"; "bogus" ], "unknown fault model \"bogus\"");
      ([ "fuzz"; "-n"; "3"; "--model"; "bogus" ], "unknown fault model \"bogus\"");
      ([ "explore"; "-n"; "3"; "--reduction"; "bogus" ], "unknown reduction \"bogus\"");
      (submit {|{"task":"explore","algo":"naive-min","n":3,"wait":0}|}, wait);
      (submit {|{"task":"fuzz","trails":5}|}, "unknown field \"trails\" for task fuzz");
    ]

(* A crash graph's node ids are int32, so a crash exploration's
   budget above 2^31 - 1 is refused by field name; a crash-free one
   keeps running. *)
let test_crash_budget_bound () =
  let over = [ "--max-configs"; "2147483648" ] in
  expect_error
    (flp @ [ "--crash-budget"; "1" ] @ over)
    ~names:
      "field \"max-configs\" must be at most 2147483647 for a crash \
       exploration, got 2147483648";
  expect (flp @ over) ~code:0
    ~lines:[ "SAFE: 4930 configs visited, 601 terminal runs" ]

(* Spawn [ksa args] and SIGINT it once the checkpoint at [path]
   exists: the campaign flushes a final checkpoint and exits 130 (0
   when it finished first). *)
let ksa_interrupted args ~path =
  if Sys.file_exists path then Sys.remove path;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) null null null in
  Unix.close null;
  let rec await tries =
    if tries > 0 && not (Sys.file_exists path) then begin
      Unix.sleepf 0.02;
      await (tries - 1)
    end
  in
  await 1500;
  Unix.kill pid Sys.sigint;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Alcotest.failf "ksa %s: killed by signal %d" (String.concat " " args) s

(* The flags and the job-spec keys are one table: for every explore and
   fuzz field, the checkpoint identity the CLI writes with the flag set
   to a value other than its default equals the one Task computes for
   the job spec carrying that key; and no flags at all is the spec
   with no keys. *)
let test_flag_json_parity () =
  let module Json = Ksa_svc.Json in
  let module Task = Ksa_svc.Task in
  let identity_of_checkpoint path =
    match Ksa_sim.Checkpoint.load ~path with
    | Ok t -> (Ksa_sim.Checkpoint.kind t, Ksa_sim.Checkpoint.fingerprint t)
    | Error e -> Alcotest.failf "checkpoint %s: %s" path e
  in
  let identity_of_json task kvs =
    match Task.spec_of_json (Json.Obj (("task", Json.Str task) :: kvs)) with
    | Ok spec -> (Task.kind spec, Task.fingerprint spec)
    | Error e -> Alcotest.fail e
  in
  let identity = Alcotest.(pair string string) in
  let campaign args =
    with_schedule (fun path ->
        let c, _, err =
          ksa (args @ [ "--checkpoint-every"; "1"; "--checkpoint"; path ])
        in
        if not (List.mem c [ 0; 4 ]) then
          Alcotest.failf "%s: exit %d (%s)" (String.concat " " args) c err;
        identity_of_checkpoint path)
  in
  let n3 = ("n", [ "-n"; "3" ], Json.Int 3) and k3 = ("k", [ "-k"; "3" ], Json.Int 3) in
  List.iter
    (fun (task, fields, base, rows) ->
      Alcotest.(check (list string))
        (task ^ ": every table field has a row")
        (List.sort compare (List.map (fun (f : Task.field) -> f.key) fields))
        (List.sort compare (List.map (fun (key, _, _) -> key) rows));
      List.iter
        (fun (key, flag_args, value) ->
          let base = List.filter (fun (k, _, _) -> k <> key) base in
          let args =
            (task :: List.concat_map (fun (_, a, _) -> a) base) @ flag_args
          in
          Alcotest.check identity (String.concat " " args)
            (identity_of_json task
               (List.map (fun (k, _, v) -> (k, v)) base @ [ (key, value) ]))
            (campaign args))
        rows;
      with_schedule (fun path ->
          let code =
            ksa_interrupted
              [ task; "--checkpoint-every"; "1"; "--checkpoint"; path ]
              ~path
          in
          Alcotest.(check bool) (task ^ ": interrupted") true (List.mem code [ 0; 130 ]);
          Alcotest.check identity (task ^ ": no flags")
            (identity_of_json task [])
            (identity_of_checkpoint path)))
    [
      ( "explore",
        Task.explore_fields,
        [ n3; k3; ("max-configs", [ "--max-configs"; "50" ], Json.Int 50) ],
        [
          ("algo", [ "--algo"; "trivial" ], Json.Str "trivial");
          ("n", [ "--size"; "4" ], Json.Int 4);
          ("k", [ "--kset"; "1" ], Json.Int 1);
          ("l", [ "--wait-quorum"; "2" ], Json.Int 2);
          ("wait", [ "--wait-for"; "3" ], Json.Int 3);
          ("dead", [ "--dead"; "0" ], Json.List [ Json.Int 0 ]);
          ("crash-budget", [ "--crash-budget"; "1" ], Json.Int 1);
          ("model", [ "--model"; "mobile:1" ], Json.Str "mobile:1");
          ("policy", [ "--policy"; "empty-or-all" ], Json.Str "empty-or-all");
          ("reduction", [ "--reduction"; "sym" ], Json.Str "sym");
          ("max-configs", [ "--max-configs"; "40" ], Json.Int 40);
          ("drop-on-crash", [ "--drop-on-crash" ], Json.Bool true);
        ] );
      ( "fuzz",
        Task.fuzz_fields,
        [ n3; k3; ("trials", [ "--trials"; "5" ], Json.Int 5) ],
        [
          ("algo", [ "--algo"; "trivial" ], Json.Str "trivial");
          ("n", [ "--size"; "4" ], Json.Int 4);
          ("k", [ "--kset"; "1" ], Json.Int 1);
          ("l", [ "--wait-quorum"; "2" ], Json.Int 2);
          ("wait", [ "--wait-for"; "3" ], Json.Int 3);
          ("dead", [ "--dead"; "0" ], Json.List [ Json.Int 0 ]);
          ("seed", [ "--seed"; "5" ], Json.Int 5);
          ("trials", [ "--trials"; "7" ], Json.Int 7);
          ("max-steps", [ "--max-steps"; "50" ], Json.Int 50);
          ("max-crashes", [ "--max-crashes"; "1" ], Json.Int 1);
          ("weights", [ "--weights"; "fair" ], Json.Str "fair");
          ("termination", [ "--require-termination" ], Json.Bool true);
          ("coverage", [ "--coverage" ], Json.Bool true);
          ("model", [ "--model"; "byzantine" ], Json.Str "byzantine");
        ] );
    ]

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
        Alcotest.test_case "specs refused by field name exit 1" `Quick
          test_spec_refusals;
        Alcotest.test_case "every table field: flag and JSON key agree" `Quick
          test_flag_json_parity;
        Alcotest.test_case "crash max-configs above 2^31-1 exits 1" `Quick
          test_crash_budget_bound;
      ] );
  ]
