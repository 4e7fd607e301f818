(* The campaign service: JSON codec, retry backoff, the durable job
   store (including crash-mid-transition sweeps), task specs with
   their historical checkpoint fingerprints, and the daemon loop
   end-to-end — retry-until-done, retry-until-dead, deadline and
   drain requeues, cancellation, and strict resume rejection. *)

module Prim = Ksa_prim
module Backoff = Prim.Backoff
module Faultsim = Prim.Faultsim
module Rng = Prim.Rng
module Metrics = Prim.Metrics
module Sim = Ksa_sim
module Checkpoint = Sim.Checkpoint
module Svc = Ksa_svc
module Json = Svc.Json
module Task = Svc.Task
module Jobstore = Svc.Jobstore
module Daemon = Svc.Daemon
module Http = Svc.Http

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

let tmp_dir () =
  let path = Filename.temp_file "ksa_svc" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists dir then go dir

let with_tmp_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---------- Json ---------- *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("int", Json.Int (-42));
      ("big", Json.Int max_int);
      ("float", Json.Float 3.25);
      ("text", Json.Str "a \"quoted\" line\nwith\ttabs and \\ slashes");
      ("list", Json.List [ Json.Int 1; Json.Str "two"; Json.Bool false ]);
      ("nest", Json.Obj [ ("inner", Json.List [ Json.Obj [] ]) ]);
    ]

let test_json_roundtrip () =
  let s = Json.to_string sample_json in
  Alcotest.(check bool) "roundtrip" true (Json.parse s = Ok sample_json);
  (* and the reprint is a fixpoint *)
  let again = ok_or_fail (Json.parse s) in
  Alcotest.(check string) "fixpoint" s (Json.to_string again)

let test_json_int_float_split () =
  Alcotest.(check bool) "int" true (Json.parse "7" = Ok (Json.Int 7));
  Alcotest.(check bool) "neg" true (Json.parse "-7" = Ok (Json.Int (-7)));
  Alcotest.(check bool) "frac" true (Json.parse "7.5" = Ok (Json.Float 7.5));
  Alcotest.(check bool) "exp" true (Json.parse "1e3" = Ok (Json.Float 1000.));
  (* get_float widens ints so "deadline": 2 works *)
  Alcotest.(check bool) "widen" true (Json.get_float (Json.Int 2) = Some 2.)

let test_json_unicode () =
  Alcotest.(check bool) "bmp escape" true
    (Json.parse {|"A"|} = Ok (Json.Str "A"));
  (* a surrogate pair decodes to one 4-byte UTF-8 scalar *)
  match Json.parse {|"😀"|} with
  | Ok (Json.Str s) -> Alcotest.(check int) "pair is 4 bytes" 4 (String.length s)
  | _ -> Alcotest.fail "surrogate pair did not parse"

let test_json_errors () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "parsed %S" bad)
      | Error e -> check_contains "offset named" ~sub:"byte" e)
    [
      "{";
      "[1,]";
      "\"unterminated";
      "{\"a\":1,}";
      "1 2";
      "nul";
      "\"bad \\x escape\"";
      "{\"a\" 1}";
    ]

(* ---------- Backoff ---------- *)

let test_backoff_growth () =
  let p = { Backoff.base = 0.5; cap = 30.0; multiplier = 2.0; jitter = 0.0 } in
  List.iteri
    (fun attempt expect ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "attempt %d" attempt)
        expect
        (Backoff.delay p ~attempt))
    [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 30.0; 30.0; 30.0 ]

let test_backoff_jitter () =
  let p = Backoff.default_retry in
  let delays seed =
    let rng = Rng.create ~seed in
    List.init 6 (fun attempt -> Backoff.delay ~rng p ~attempt)
  in
  Alcotest.(check bool) "deterministic" true (delays 42 = delays 42);
  List.iteri
    (fun attempt d ->
      let full = Backoff.delay { p with jitter = 0.0 } ~attempt in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in [%.3f, %.3f]" attempt
           (full *. (1. -. p.Backoff.jitter))
           full)
        true
        (d <= full && d >= full *. (1. -. p.Backoff.jitter)))
    (delays 42)

let test_backoff_invalid () =
  let p = Backoff.default_retry in
  (try
     ignore (Backoff.delay p ~attempt:(-1));
     Alcotest.fail "negative attempt accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Backoff.delay { p with Backoff.base = 0.0 } ~attempt:0);
    Alcotest.fail "zero base accepted"
  with Invalid_argument _ -> ()

(* ---------- Faultsim mechanics ---------- *)

let test_faultsim_arm_nth () =
  Fun.protect ~finally:Faultsim.reset (fun () ->
      Faultsim.arm ~point:"p" ~nth:2 Faultsim.Crash;
      Faultsim.point "p";
      Faultsim.point "other";
      (* only the named point's second hit fires *)
      (match Faultsim.point "p" with
      | () -> Alcotest.fail "second hit did not crash"
      | exception Faultsim.Crashed _ -> ());
      (* a fired plan is spent *)
      Faultsim.point "p";
      Faultsim.arm ~nth:1 (Faultsim.Errno Unix.ENOSPC);
      match Faultsim.point "any" with
      | () -> Alcotest.fail "errno did not fire"
      | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ())

(* ---------- Task specs ---------- *)

let explore_spec =
  Task.Explore
    {
      Task.e_algo = "kset-flp";
      e_n = 4;
      e_k = 2;
      e_l = None;
      e_wait = 2;
      e_dead = [];
      e_crash_budget = 0;
      e_model = Sim.Fault_model.Crash;
      e_policy = "per-sender";
      e_reduction = Sim.Canon.No_reduction;
      e_max_configs = None;
      e_drop = false;
    }

(* small enough to exhaust in well under a second — the spec the
   run-the-campaign tests use *)
let small_explore =
  match explore_spec with
  | Task.Explore e -> Task.Explore { e with Task.e_n = 3 }
  | _ -> assert false

let fuzz_spec =
  Task.Fuzz
    {
      Task.f_algo = "kset-flp";
      f_n = 5;
      f_k = 2;
      f_l = None;
      f_wait = 2;
      f_dead = [ 0 ];
      f_seed = 9;
      f_trials = 50;
      f_max_steps = 120;
      f_max_crashes = 1;
      f_weights = "mixed";
      f_termination = false;
      f_coverage = false;
      f_model = Sim.Fault_model.Crash;
    }

let test_task_fingerprints () =
  (* byte-identical to what bin/ksa.ml has always written: an old
     checkpoint file must keep resuming under the Task layer *)
  Alcotest.(check string) "explore kind" "explore" (Task.kind explore_spec);
  Alcotest.(check string) "explore fingerprint"
    "algo=kset-flp n=4 k=2 l=3 wait=2 dead= crash-budget=0 policy=per-sender \
     max-configs=- drop=false reduction=none"
    (Task.fingerprint explore_spec);
  Alcotest.(check string) "fuzz kind" "fuzz" (Task.kind fuzz_spec);
  Alcotest.(check string) "fuzz fingerprint"
    "algo=kset-flp n=5 k=2 l=4 wait=2 dead=0 seed=9 trials=50 max-steps=120 \
     max-crashes=1 weights=mixed termination=false coverage=false"
    (Task.fingerprint fuzz_spec);
  (* the crash-budget flips the kind, like the CLI *)
  let crashy =
    match explore_spec with
    | Task.Explore e -> Task.Explore { e with Task.e_crash_budget = 1 }
    | _ -> assert false
  in
  Alcotest.(check string) "explore-crash kind" "explore-crash"
    (Task.kind crashy)

let test_task_spec_json_roundtrip () =
  List.iter
    (fun spec ->
      match Task.spec_of_json (Task.spec_to_json spec) with
      | Ok back ->
          Alcotest.(check string) "roundtrip fingerprint"
            (Task.fingerprint spec) (Task.fingerprint back)
      | Error e -> Alcotest.fail e)
    [ explore_spec; fuzz_spec; Task.Probe { Task.p_fail = 2; p_spin = 0.5 } ]

let test_task_spec_validation () =
  let bad json = expect_error "spec" (Task.spec_of_json json) in
  check_contains "algo" ~sub:"unknown algorithm"
    (bad (Json.Obj [ ("task", Json.Str "explore"); ("algo", Json.Str "nope") ]));
  check_contains "task" ~sub:"unknown task"
    (bad (Json.Obj [ ("task", Json.Str "bake") ]));
  check_contains "weights" ~sub:"unknown weights"
    (bad
       (Json.Obj [ ("task", Json.Str "fuzz"); ("weights", Json.Str "loaded") ]))

let test_task_probe () =
  (* fails while attempt < fail, then succeeds: the daemon's retry
     fixture *)
  (match Task.run ~attempt:0 (Task.Probe { Task.p_fail = 2; p_spin = 0. }) with
  | exception Failure m -> check_contains "injected" ~sub:"injected" m
  | _ -> Alcotest.fail "attempt 0 should raise");
  match Task.run ~attempt:2 (Task.Probe { Task.p_fail = 2; p_spin = 0. }) with
  | Ok (Task.Probed { attempt }) -> Alcotest.(check int) "attempt" 2 attempt
  | _ -> Alcotest.fail "attempt 2 should succeed"

let test_task_load_resume_errors () =
  let c =
    Task.open_campaign ~resume:"/nonexistent-ksa/x.ckpt"
      ~interrupt:(fun () -> false) small_explore
  in
  match c.Task.rejected with
  | Some e ->
      check_contains "missing" ~sub:"cannot resume" e;
      Alcotest.(check bool) "fresh" true (c.Task.payload = None)
  | None -> Alcotest.fail "missing: expected a rejection"

let test_task_explore_runs () =
  match Task.run small_explore with
  | Ok (Task.Explored (Sim.Explorer.Safe _) as o) ->
      let s = Task.summarize o in
      Alcotest.(check string) "verdict" "safe" s.Task.verdict;
      Alcotest.(check int) "exit" 0 s.Task.exit_code;
      let back = ok_or_fail (Task.summary_of_json (Task.summary_to_json s)) in
      Alcotest.(check bool) "summary roundtrip" true (back = s)
  | Ok _ -> Alcotest.fail "expected Safe"
  | Error e -> Alcotest.fail e

(* ---------- resume domain rule ---------- *)

(* an interrupt hook that turns true after [n] polls, counting them *)
let poll_after n =
  let polls = Atomic.make 0 in
  ((fun () -> Atomic.fetch_and_add polls 1 >= n), polls)

(* checkpoint [spec] into a file in [dir], cut by [interrupt]: the
   cut outcome, and the payload a campaign resuming it is opened with *)
let cut_payload ~dir ~interrupt spec =
  let checkpoint = Filename.concat dir "cut.ckpt" in
  let c = Task.open_campaign ~checkpoint ~interrupt spec in
  let outcome = ok_or_fail (Task.run ~ckpt:c.Task.ckpt spec) in
  let never () = false in
  match (Task.open_campaign ~resume:checkpoint ~interrupt:never spec).Task.payload with
  | Some payload -> (outcome, payload)
  | None -> Alcotest.fail "the cut checkpoint does not resume"

let admitted () = Metrics.value (Metrics.counter "explore.admitted")

let spawned () = Metrics.value (Metrics.counter "explore.domains.spawned")

let test_task_resume_explore_domains () =
  (* a crash-free explore payload cut at one domain resumes on the two
     domains the caller hands it: the baseline verdict and stats, from
     less work than a fresh run *)
  let count, polls = poll_after max_int in
  let a0 = admitted () in
  let baseline =
    Task.summarize
      (ok_or_fail
         (Task.run ~ckpt:(Checkpoint.ctl ~interrupt:count ()) small_explore))
  in
  let fresh = admitted () - a0 in
  with_tmp_dir (fun dir ->
      let cut, _ = poll_after (Atomic.get polls / 2) in
      let _, payload = cut_payload ~dir ~interrupt:cut small_explore in
      let a1 = admitted () and s1 = spawned () in
      let resumed =
        Task.summarize
          (ok_or_fail (Task.run ~domains:2 ~resume:payload small_explore))
      in
      Alcotest.(check string)
        "verdict" baseline.Task.verdict resumed.Task.verdict;
      Alcotest.(check string) "stats" baseline.Task.detail resumed.Task.detail;
      Alcotest.(check int) "resumed on two domains" 2 (spawned () - s1);
      let delta = admitted () - a1 in
      Alcotest.(check bool)
        (Printf.sprintf "resume admitted %d < fresh %d" delta fresh)
        true (delta < fresh))

let test_task_resume_fuzz_domains () =
  (* a coverage fuzz payload resumes at the caller's domain count *)
  let spec =
    match fuzz_spec with
    | Task.Fuzz f -> Task.Fuzz { f with Task.f_coverage = true; f_trials = 200 }
    | _ -> assert false
  in
  let baseline = Task.summarize (ok_or_fail (Task.run spec)) in
  with_tmp_dir (fun dir ->
      let cut, _ = poll_after 100 in
      let payload =
        match cut_payload ~dir ~interrupt:cut spec with
        | Task.Fuzzed (_, Some c), payload ->
            Alcotest.(check int) "cut half way" 100 c.Sim.Fuzz.cov_trials;
            payload
        | _ -> Alcotest.fail "the cut campaign has no corpus"
      in
      let resumed =
        Task.summarize (ok_or_fail (Task.run ~domains:2 ~resume:payload spec))
      in
      Alcotest.(check bool) "baseline outcome" true (resumed = baseline))

(* ---------- Jobstore ---------- *)

let test_jobstore_roundtrip () =
  with_tmp_dir (fun dir ->
      let t = ok_or_fail (Jobstore.open_dir ~dir) in
      let j1 = ok_or_fail (Jobstore.submit t explore_spec) in
      let j2 =
        ok_or_fail (Jobstore.submit t ~deadline:1.5 ~retry_max:7 fuzz_spec)
      in
      Alcotest.(check (list int)) "ids" [ 1; 2 ]
        (List.map (fun (j : Jobstore.job) -> j.Jobstore.id) (Jobstore.list t));
      ok_or_fail
        (Jobstore.update t
           { j1 with Jobstore.state = Jobstore.Done; attempts = 1 });
      (* a fresh open rereads everything from disk *)
      let t' = ok_or_fail (Jobstore.open_dir ~dir) in
      (match Jobstore.get t' 1 with
      | Some j ->
          Alcotest.(check bool) "done survived" true
            (j.Jobstore.state = Jobstore.Done && j.Jobstore.attempts = 1)
      | None -> Alcotest.fail "job 1 lost");
      (match Jobstore.get t' 2 with
      | Some j ->
          Alcotest.(check bool) "deadline survived" true
            (j.Jobstore.deadline = Some 1.5 && j.Jobstore.retry_max = 7);
          Alcotest.(check string) "spec survived" (Task.fingerprint fuzz_spec)
            (Task.fingerprint j.Jobstore.spec)
      | None -> Alcotest.fail "job 2 lost");
      ignore j2;
      (* ids keep ascending across reopens *)
      let j3 = ok_or_fail (Jobstore.submit t' explore_spec) in
      Alcotest.(check int) "next id" 3 j3.Jobstore.id)

let test_jobstore_adopts_orphans () =
  with_tmp_dir (fun dir ->
      let t = ok_or_fail (Jobstore.open_dir ~dir) in
      let j = ok_or_fail (Jobstore.submit t explore_spec) in
      ok_or_fail (Jobstore.update t { j with Jobstore.state = Jobstore.Running });
      (* a new daemon finds the Running orphan of the dead one *)
      let t' = ok_or_fail (Jobstore.open_dir ~dir) in
      (match Jobstore.get t' j.Jobstore.id with
      | Some j' ->
          Alcotest.(check bool) "adopted" true
            (j'.Jobstore.state = Jobstore.Queued && j'.Jobstore.resumable)
      | None -> Alcotest.fail "orphan lost");
      (* and the adoption was persisted: a third open sees Queued
         directly, not another adoption *)
      let t'' = ok_or_fail (Jobstore.open_dir ~dir) in
      match Jobstore.get t'' j.Jobstore.id with
      | Some j'' ->
          Alcotest.(check bool) "adoption durable" true
            (j''.Jobstore.state = Jobstore.Queued)
      | None -> Alcotest.fail "orphan lost after adoption")

let test_jobstore_crash_sweep () =
  (* crash at every instant of a state-transition write: the reopened
     store must see the old state or the new state, never lose the
     job, and never block on the leftover temp file *)
  with_tmp_dir (fun dir ->
      Fun.protect ~finally:Faultsim.reset (fun () ->
          let t = ok_or_fail (Jobstore.open_dir ~dir) in
          let j = ok_or_fail (Jobstore.submit t explore_spec) in
          Faultsim.record ();
          ok_or_fail
            (Jobstore.update t { j with Jobstore.state = Jobstore.Running });
          let trace = Faultsim.trace () in
          Faultsim.reset ();
          Alcotest.(check bool) "trace nonempty" true (trace <> []);
          let seen = Hashtbl.create 8 in
          List.iter
            (fun point ->
              let nth =
                1 + Option.value ~default:0 (Hashtbl.find_opt seen point)
              in
              Hashtbl.replace seen point nth;
              (* reset to the old state, then crash mid-transition *)
              ok_or_fail
                (Jobstore.update t
                   { j with Jobstore.state = Jobstore.Failed 1 });
              Faultsim.arm ~point ~nth Faultsim.Crash;
              (match
                 Jobstore.update t { j with Jobstore.state = Jobstore.Done }
               with
              | exception Faultsim.Crashed _ -> ()
              | Ok () -> ()
              | Error e -> Alcotest.fail e);
              Faultsim.reset ();
              let t' = ok_or_fail (Jobstore.open_dir ~dir) in
              match Jobstore.get t' j.Jobstore.id with
              | None ->
                  Alcotest.fail
                    (Printf.sprintf "%s#%d: job lost to the crash" point nth)
              | Some j' ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s#%d: old or new state" point nth)
                    true
                    (j'.Jobstore.state = Jobstore.Failed 1
                    || j'.Jobstore.state = Jobstore.Done))
            trace))

(* ---------- Daemon ---------- *)

let batch_cfg ~dir =
  {
    (Daemon.default_cfg ~dir) with
    Daemon.exit_when_idle = true;
    (* fast, deterministic-schedule retries for tests *)
    retry =
      { Backoff.base = 0.001; cap = 0.002; multiplier = 2.0; jitter = 0.0 };
  }

let probe ?(fail = 0) ?(spin = 0.) () =
  Task.Probe { Task.p_fail = fail; p_spin = spin }

let test_daemon_retry_until_done () =
  with_tmp_dir (fun dir ->
      let t = ok_or_fail (Jobstore.open_dir ~dir) in
      let j = ok_or_fail (Jobstore.submit t ~retry_max:3 (probe ~fail:2 ())) in
      let retried_before = Metrics.value (Metrics.counter "svc.jobs.retried") in
      Alcotest.(check int) "daemon exits clean" 0
        (Daemon.serve (batch_cfg ~dir));
      let t' = ok_or_fail (Jobstore.open_dir ~dir) in
      (match Jobstore.get t' j.Jobstore.id with
      | Some j' ->
          Alcotest.(check bool) "done" true (j'.Jobstore.state = Jobstore.Done);
          (* two injected failures, then success *)
          Alcotest.(check int) "attempts" 3 j'.Jobstore.attempts;
          (match j'.Jobstore.result with
          | Some s -> Alcotest.(check string) "verdict" "ok" s.Task.verdict
          | None -> Alcotest.fail "no result");
          Alcotest.(check bool) "error cleared" true (j'.Jobstore.error = None)
      | None -> Alcotest.fail "job lost");
      Alcotest.(check int) "two retries scheduled" (retried_before + 2)
        (Metrics.value (Metrics.counter "svc.jobs.retried")))

let test_daemon_retry_until_dead () =
  with_tmp_dir (fun dir ->
      let t = ok_or_fail (Jobstore.open_dir ~dir) in
      let j = ok_or_fail (Jobstore.submit t ~retry_max:1 (probe ~fail:99 ())) in
      Alcotest.(check int) "daemon exits clean" 0
        (Daemon.serve (batch_cfg ~dir));
      let t' = ok_or_fail (Jobstore.open_dir ~dir) in
      match Jobstore.get t' j.Jobstore.id with
      | Some j' ->
          Alcotest.(check bool) "dead" true (j'.Jobstore.state = Jobstore.Dead);
          (* the original attempt plus one retry *)
          Alcotest.(check int) "attempts" 2 j'.Jobstore.attempts;
          (match j'.Jobstore.error with
          | Some e -> check_contains "error recorded" ~sub:"injected" e
          | None -> Alcotest.fail "no error recorded")
      | None -> Alcotest.fail "job lost")

let test_daemon_runs_campaigns () =
  (* a real explore job through the daemon reports exactly the
     summary a direct Task.run reports *)
  with_tmp_dir (fun dir ->
      let t = ok_or_fail (Jobstore.open_dir ~dir) in
      let j = ok_or_fail (Jobstore.submit t small_explore) in
      Alcotest.(check int) "daemon exits clean" 0
        (Daemon.serve (batch_cfg ~dir));
      let direct = Task.summarize (ok_or_fail (Task.run small_explore)) in
      let t' = ok_or_fail (Jobstore.open_dir ~dir) in
      match Jobstore.get t' j.Jobstore.id with
      | Some { Jobstore.state = Jobstore.Done; result = Some s; _ } ->
          Alcotest.(check bool) "summary identical" true (s = direct)
      | _ -> Alcotest.fail "explore job not done")

let test_daemon_strict_resume_rejection () =
  (* a resumable job with a mismatched checkpoint: the daemon refuses
     the checkpoint (counted), then reruns the attempt fresh *)
  with_tmp_dir (fun dir ->
      let t = ok_or_fail (Jobstore.open_dir ~dir) in
      let j = ok_or_fail (Jobstore.submit t small_explore) in
      ok_or_fail (Jobstore.update t { j with Jobstore.resumable = true });
      (* a valid frame of the wrong kind/fingerprint would also do;
         garbage exercises the same strict path *)
      Out_channel.with_open_bin
        (Jobstore.ckpt_path ~dir j.Jobstore.id)
        (fun oc -> Out_channel.output_string oc "not a checkpoint");
      let rejected_before =
        Metrics.value (Metrics.counter "svc.resume.rejected")
      in
      Alcotest.(check int) "daemon exits clean" 0
        (Daemon.serve (batch_cfg ~dir));
      Alcotest.(check int) "rejection counted" (rejected_before + 1)
        (Metrics.value (Metrics.counter "svc.resume.rejected"));
      let t' = ok_or_fail (Jobstore.open_dir ~dir) in
      match Jobstore.get t' j.Jobstore.id with
      | Some { Jobstore.state = Jobstore.Done; result = Some s; _ } ->
          Alcotest.(check string) "fresh rerun converges" "safe" s.Task.verdict
      | _ -> Alcotest.fail "job not done after rejected resume")

(* one HTTP daemon session exercises submit/status/cancel/deadline/
   drain against a live event loop *)
let test_daemon_http_session () =
  with_tmp_dir (fun dir ->
      let addr = "unix:" ^ Filename.concat dir "sock" in
      let cfg =
        { (Daemon.default_cfg ~dir) with Daemon.addr = Some addr }
      in
      let daemon = Domain.spawn (fun () -> Daemon.serve cfg) in
      let req ?body meth path =
        let rec retry n =
          match Http.request ~addr ~meth ~path ?body () with
          | Ok r -> r
          | Error e ->
              if n = 0 then Alcotest.fail ("http: " ^ e)
              else begin
                (* the listener may not be up yet *)
                Unix.sleepf 0.05;
                retry (n - 1)
              end
        in
        retry 40
      in
      let get_job body =
        match Result.bind (Json.parse body) Jobstore.job_of_json with
        | Ok j -> j
        | Error e -> Alcotest.fail ("bad job json: " ^ e)
      in
      let submit ?deadline spec =
        let body =
          Json.to_string
            (Json.Obj
               ([ ("spec", Task.spec_to_json spec) ]
               @
               match deadline with
               | None -> []
               | Some d -> [ ("deadline", Json.Float d) ]))
        in
        match req ~body "POST" "/jobs" with
        | 201, reply -> (get_job reply).Jobstore.id
        | st, reply ->
            Alcotest.fail (Printf.sprintf "submit: %d %s" st reply)
      in
      let status id =
        match req "GET" (Printf.sprintf "/jobs/%d" id) with
        | 200, reply -> get_job reply
        | st, reply ->
            Alcotest.fail (Printf.sprintf "status: %d %s" st reply)
      in
      let rec await ?(tries = 200) id pred =
        let j = status id in
        if pred j then j
        else if tries = 0 then
          Alcotest.fail (Printf.sprintf "job %d never reached state" id)
        else begin
          Unix.sleepf 0.05;
          await ~tries:(tries - 1) id pred
        end
      in
      (* health before any job *)
      (match req "GET" "/health" with
      | 200, body -> check_contains "health" ~sub:"\"ok\":true" body
      | st, _ -> Alcotest.fail (Printf.sprintf "health: %d" st));
      (* deadline: a long probe is cut, requeued with its progress
         counter bumped, and rescheduled *)
      let slow = submit ~deadline:0.2 (probe ~spin:30. ()) in
      let j =
        await slow (fun j -> j.Jobstore.requeues >= 1)
      in
      Alcotest.(check bool) "deadline did not kill it" true
        (j.Jobstore.state <> Jobstore.Dead);
      (* cancel it (running or queued, whichever the race gives) *)
      (match req "DELETE" (Printf.sprintf "/jobs/%d" slow) with
      | (200 | 202), _ -> ()
      | st, reply -> Alcotest.fail (Printf.sprintf "cancel: %d %s" st reply));
      let j = await slow (fun j -> j.Jobstore.state = Jobstore.Dead) in
      (match j.Jobstore.error with
      | Some e -> check_contains "cancelled" ~sub:"cancelled" e
      | None -> Alcotest.fail "no cancellation reason");
      (* an unknown id is a 404, not a hang *)
      (match req "GET" "/jobs/999" with
      | 404, _ -> ()
      | st, _ -> Alcotest.fail (Printf.sprintf "missing job: %d" st));
      (* drain with a job mid-run: requeued resumable, daemon exits 0 *)
      let draining = submit (probe ~spin:30. ()) in
      ignore (await draining (fun j -> j.Jobstore.state = Jobstore.Running));
      (match req "POST" "/drain" with
      | 202, _ -> ()
      | st, _ -> Alcotest.fail (Printf.sprintf "drain: %d" st));
      Alcotest.(check int) "drained daemon exits 0" 0 (Domain.join daemon);
      (* the drained job survived as queued work for the next daemon *)
      let t = ok_or_fail (Jobstore.open_dir ~dir) in
      match Jobstore.get t draining with
      | Some j ->
          Alcotest.(check bool) "requeued" true
            (j.Jobstore.state = Jobstore.Queued && j.Jobstore.requeues = 1)
      | None -> Alcotest.fail "drained job lost")

(* A daemon on a fresh directory: [f] submits specs to it over HTTP
   ([submit spec] is the reply's (status, body)), then the daemon is
   drained and must have stored no job. *)
let with_refusing_daemon f =
  with_tmp_dir (fun dir ->
      let addr = "unix:" ^ Filename.concat dir "sock" in
      let cfg = { (Daemon.default_cfg ~dir) with Daemon.addr = Some addr } in
      let daemon = Domain.spawn (fun () -> Daemon.serve cfg) in
      let rec req ?body ?(tries = 40) meth path =
        match Http.request ~addr ~meth ~path ?body () with
        | Ok r -> r
        | Error e ->
            if tries = 0 then Alcotest.fail ("http: " ^ e)
            else begin
              (* the listener may not be up yet *)
              Unix.sleepf 0.05;
              req ?body ~tries:(tries - 1) meth path
            end
      in
      f (fun spec ->
          req ~body:(Json.to_string (Json.Obj [ ("spec", spec) ])) "POST" "/jobs");
      (match req "POST" "/drain" with
      | 202, _ -> ()
      | st, _ -> Alcotest.fail (Printf.sprintf "drain: %d" st));
      Alcotest.(check int) "drained daemon exits 0" 0 (Domain.join daemon);
      let t = ok_or_fail (Jobstore.open_dir ~dir) in
      Alcotest.(check bool) "no job stored" true (Jobstore.get t 1 = None))

(* A fuzz spec of an algorithm that queries a failure detector cannot
   run: the codec and [Task.run] name the reason, and the daemon
   answers 400 at submit instead of retrying a failing job. *)
let test_daemon_refuses_fd_fuzz () =
  let spec =
    Json.Obj
      [
        ("task", Json.Str "fuzz");
        ("algo", Json.Str "synod");
        ("n", Json.Int 3);
        ("k", Json.Int 1);
        ("max-crashes", Json.Int 1);
        ("trials", Json.Int 300);
        ("seed", Json.Int 4);
      ]
  in
  let reason = "cannot fuzz synod: it queries a failure detector" in
  check_contains "codec" ~sub:reason
    (expect_error "spec" (Task.spec_of_json spec));
  (match Task.spec_of_json (Json.Obj [ ("task", Json.Str "fuzz") ]) with
  | Ok (Task.Fuzz f) ->
      check_contains "run" ~sub:reason
        (expect_error "run"
           (Task.run (Task.Fuzz { f with Task.f_algo = "synod" })))
  | _ -> Alcotest.fail "default fuzz spec");
  with_refusing_daemon (fun submit ->
      match submit spec with
      | 400, reply -> check_contains "reply" ~sub:reason reply
      | st, reply -> Alcotest.fail (Printf.sprintf "submit: %d %s" st reply))

(* Specs [Task.run] could not run without raising — a size below 1,
   a kset-flp size above its decision rule's bitmask bound, L or
   wait-for outside 1..n, a fuzz dead pid out of range — a
   repeated explore dead pid, which the crash explorer ran as if
   listed once, a misspelt key, a crash exploration's budget above
   the crash graph's int32 ids, and the removed reduction mode: each
   is refused by field name. *)
let removed_reduction =
  "reduction \"sym+por\" was removed: its sleep sets admitted more \
   configurations than sym; sym gives the same crash-driver results"

let crash_specs =
  let obj task kvs = Json.Obj (("task", Json.Str task) :: kvs) in
  [
    ( obj "explore" [ ("n", Json.Int (-3)) ],
      "field \"n\" (--size) must be at least 1, got -3" );
    ( obj "fuzz" [ ("n", Json.Int (Ksa_algo.Kset_flp.max_n + 1)) ],
      Printf.sprintf "kset-flp: field \"n\" (--size) must be at most %d, got %d"
        Ksa_algo.Kset_flp.max_n (Ksa_algo.Kset_flp.max_n + 1) );
    ( obj "explore" [ ("n", Json.Int 3); ("l", Json.Int 0) ],
      "kset-flp: field \"l\" (--wait-quorum) must be in 1..3, got 0" );
    ( obj "explore" [ ("n", Json.Int 3); ("l", Json.Int 9) ],
      "kset-flp: field \"l\" (--wait-quorum) must be in 1..3, got 9" );
    ( obj "explore"
        [ ("algo", Json.Str "naive-min"); ("n", Json.Int 3); ("wait", Json.Int 0) ],
      "naive-min: field \"wait\" (--wait-for) must be in 1..3, got 0" );
    ( obj "fuzz" [ ("n", Json.Int 3); ("dead", Json.List [ Json.Int 7 ]) ],
      "field \"dead\": pid 7 is out of range 0..2" );
    ( obj "explore"
        [ ("n", Json.Int 3); ("crash-budget", Json.Int 1);
          ("dead", Json.List [ Json.Int 0; Json.Int 0 ]) ],
      "field \"dead\" lists pid 0 twice" );
    ( obj "fuzz" [ ("trails", Json.Int 5) ],
      "unknown field \"trails\" for task fuzz" );
    ( obj "explore"
        [ ("n", Json.Int 3); ("crash-budget", Json.Int 1);
          ("max-configs", Json.Int 2147483648) ],
      "field \"max-configs\" must be at most 2147483647 for a crash \
       exploration, got 2147483648" );
    ( obj "explore" [ ("n", Json.Int 3); ("reduction", Json.Str "sym+por") ],
      removed_reduction );
  ]

let test_task_spec_ranges () =
  let obj task kvs = Json.Obj (("task", Json.Str task) :: kvs) in
  List.iter
    (fun (spec, reason) ->
      check_contains reason ~sub:reason
        (expect_error "spec" (Task.spec_of_json spec)))
    (crash_specs
    @ [
        ( obj "fuzz" [ ("k", Json.Int 0) ],
          "field \"k\" (--kset) must be at least 1, got 0" );
        ( obj "fuzz" [ ("n", Json.Int 3); ("dead", Json.List [ Json.Int 1; Json.Int 1 ]) ],
          "field \"dead\" lists pid 1 twice" );
        ( obj "fuzz" [ ("dead", Json.List [ Json.Int (-1) ]) ],
          "field \"dead\": pid -1 is out of range 0..5" );
        (obj "fuzz" [ ("trials", Json.Int (-1)) ], "field \"trials\" must be at least 0");
        (obj "fuzz" [ ("max-steps", Json.Int (-1)) ], "field \"max-steps\" must be at least 0");
        ( obj "fuzz" [ ("max-crashes", Json.Int (-1)) ],
          "field \"max-crashes\" must be at least 0" );
        ( obj "explore" [ ("crash-budget", Json.Int (-1)) ],
          "field \"crash-budget\" must be at least 0" );
        ( obj "explore" [ ("max-configs", Json.Int (-1)) ],
          "field \"max-configs\" must be at least 0" );
        ( obj "explore" [ ("termination", Json.Bool true) ],
          "unknown field \"termination\" for task explore" );
        (obj "probe" [ ("n", Json.Int 3) ], "unknown field \"n\" for task probe");
        (obj "explore" [ ("dead", Json.Int 1) ], "field \"dead\" must be a list of integers");
      ]);
  (* the functors' own range checks are reached through [algo_conv] by
     [Task.run] too, on a spec built without the codec *)
  match small_explore with
  | Task.Explore e ->
      check_contains "run" ~sub:"must be in 1..3, got 0"
        (expect_error "run" (Task.run (Task.Explore { e with Task.e_l = Some 0 })))
  | _ -> assert false

let test_daemon_refuses_crash_specs () =
  with_refusing_daemon (fun submit ->
      List.iter
        (fun (spec, reason) ->
          match submit spec with
          | 400, reply ->
              (* the reason, unescaped from the reply's JSON *)
              let error =
                Option.bind
                  (Result.to_option (Json.parse reply))
                  (fun j -> Option.bind (Json.mem "error" j) Json.get_string)
              in
              Alcotest.(check (option string)) "reply" (Some reason) error
          | st, reply ->
              Alcotest.fail (Printf.sprintf "submit: %d %s" st reply))
        crash_specs)

(* Job records written before the spec table keep loading, to the same
   checkpoint identity: the parent's [spec_to_json] output, byte for
   byte, with its kind and fingerprint. *)
let test_task_old_specs_load () =
  List.iter
    (fun (text, kind, fingerprint) ->
      let spec = ok_or_fail (Result.bind (Json.parse text) Task.spec_of_json) in
      Alcotest.(check string) "kind" kind (Task.kind spec);
      Alcotest.(check string) "fingerprint" fingerprint (Task.fingerprint spec);
      Alcotest.(check string) "spec_to_json bytes" text
        (Json.to_string (Task.spec_to_json spec)))
    [
      ( {|{"task":"explore","algo":"kset-flp","n":4,"k":2,"wait":2,"dead":[],"crash-budget":0,"model":"crash","policy":"per-sender","reduction":"none","drop-on-crash":false}|},
        "explore",
        "algo=kset-flp n=4 k=2 l=3 wait=2 dead= crash-budget=0 \
         policy=per-sender max-configs=- drop=false reduction=none" );
      ( {|{"task":"explore","algo":"naive-min","n":3,"k":1,"l":2,"wait":3,"dead":[1],"crash-budget":1,"model":"byzantine:1","policy":"empty-or-all","reduction":"sym","max-configs":4000,"drop-on-crash":true}|},
        "explore-crash",
        "algo=naive-min n=3 k=1 l=2 wait=3 dead=1 crash-budget=1 \
         policy=empty-or-all max-configs=4000 drop=true reduction=sym \
         model=byzantine:1" );
      ( {|{"task":"fuzz","algo":"kset-flp","n":5,"k":2,"wait":2,"dead":[0],"seed":9,"trials":50,"max-steps":120,"max-crashes":1,"weights":"mixed","termination":false,"coverage":false,"model":"crash"}|},
        "fuzz",
        "algo=kset-flp n=5 k=2 l=4 wait=2 dead=0 seed=9 trials=50 \
         max-steps=120 max-crashes=1 weights=mixed termination=false \
         coverage=false" );
      ( {|{"task":"fuzz","algo":"trivial","n":5,"k":2,"l":3,"wait":4,"dead":[0,2],"seed":9,"trials":50,"max-steps":120,"max-crashes":1,"weights":"fair","termination":true,"coverage":true,"model":"mobile:2"}|},
        "fuzz",
        "algo=trivial n=5 k=2 l=3 wait=4 dead=0,2 seed=9 trials=50 \
         max-steps=120 max-crashes=1 weights=fair termination=true \
         coverage=true model=mobile:2" );
      ({|{"task":"probe","fail":2,"spin":0.5}|}, "probe", "probe fail=2 spin=0.5");
    ]

(* A record the store cannot read back — corrupt, or holding a spec
   an older daemon accepted and the codec now refuses — is skipped on
   open, and its id stays taken: the next job does not overwrite it. *)
let test_jobstore_skipped_id_kept () =
  with_tmp_dir (fun dir ->
      let t = ok_or_fail (Jobstore.open_dir ~dir) in
      let refused =
        match fuzz_spec with
        | Task.Fuzz f -> Task.Fuzz { f with Task.f_dead = [ 7 ] }
        | _ -> assert false
      in
      ignore (ok_or_fail (Jobstore.submit t refused));
      let path =
        Sys.readdir dir |> Array.to_list
        |> List.find (fun f -> Filename.check_suffix f ".ksaj")
        |> Filename.concat dir
      in
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let t' = ok_or_fail (Jobstore.open_dir ~dir) in
      Alcotest.(check bool) "skipped" true (Jobstore.get t' 1 = None);
      let j2 = ok_or_fail (Jobstore.submit t' explore_spec) in
      Alcotest.(check int) "next id" 2 j2.Jobstore.id;
      Alcotest.(check string) "record untouched" bytes
        (In_channel.with_open_bin path In_channel.input_all))

(* A stored record whose spec asks for the removed [sym+por] reduction
   is skipped on open with the codec's reason; its id stays taken and
   the records beside it load. *)
let test_jobstore_removed_reduction () =
  with_tmp_dir (fun dir ->
      let t = ok_or_fail (Jobstore.open_dir ~dir) in
      let sym =
        match explore_spec with
        | Task.Explore e ->
            Task.Explore { e with Task.e_reduction = Sim.Canon.Symmetry }
        | _ -> assert false
      in
      let j1 = ok_or_fail (Jobstore.submit t sym) in
      ignore (ok_or_fail (Jobstore.submit t fuzz_spec));
      let id = j1.Jobstore.id in
      let path = Filename.concat dir (Printf.sprintf "job-%06d.ksaj" id) in
      let magic = "KSAJOB01" in
      let version, text = ok_or_fail (Prim.Durable.read_framed ~path ~magic) in
      let field = {|"reduction":"sym"|} in
      let rec find at =
        if at + String.length field > String.length text then
          Alcotest.fail ("no " ^ field ^ " in " ^ text)
        else if String.sub text at (String.length field) = field then at
        else find (at + 1)
      in
      let at = find 0 in
      let text =
        String.sub text 0 at ^ {|"reduction":"sym+por"|}
        ^ String.sub text (at + String.length field)
            (String.length text - at - String.length field)
      in
      ok_or_fail (Prim.Durable.write_framed ~path ~magic ~version text);
      let t', err =
        Test_util.with_stderr (fun () -> ok_or_fail (Jobstore.open_dir ~dir))
      in
      check_contains "stderr" ~sub:removed_reduction err;
      Alcotest.(check bool) "skipped" true (Jobstore.get t' id = None);
      Alcotest.(check bool) "sibling loads" true (Jobstore.get t' 2 <> None);
      Alcotest.(check int) "next id" 3
        (ok_or_fail (Jobstore.submit t' explore_spec)).Jobstore.id)

(* ---------- the spec space (qcheck) ---------- *)

(* Any point of the campaign-spec space, at tiny budgets: every spec
   either runs to an outcome through the opener or is refused with a
   named [Error] — never an exception — at both one and two domains,
   and prints the same result lines at both, save an explore run the
   budget truncated (which nodes a cut keeps depends on scheduling);
   a checkpoint it wrote reopens as its own, and a fuzz
   counterexample's saved shrunk schedule replays to a violation
   again.  Out-of-range L, repeated dead pids and failure-detector
   fuzz specs are drawn on purpose: they must be refused, not
   raise. *)
let spec_space =
  let open QCheck.Gen in
  let* task = oneofl [ "explore"; "fuzz" ] in
  let* algo = oneofl [ "kset-flp"; "kset-flp"; "naive-min"; "trivial"; "synod" ] in
  let* n = int_range 2 5 in
  let* k = int_range 1 n in
  let* l = opt (int_range 0 (n + 1)) in
  let* wait = int_range 1 n in
  let* dead = list_size (int_range 0 2) (int_range 0 (n - 1)) in
  let* crashes = int_range 0 2 in
  let* model = oneofl [ "crash"; "crash"; "byzantine:1"; "byzantine:2"; "mobile:1" ] in
  let* checkpoint = bool in
  let common =
    [ ("algo", Json.Str algo); ("n", Json.Int n); ("k", Json.Int k);
      ("wait", Json.Int wait); ("dead", Json.List (List.map (fun p -> Json.Int p) dead));
      ("model", Json.Str model) ]
    @ Option.to_list (Option.map (fun l -> ("l", Json.Int l)) l)
  in
  let+ rest =
    if task = "explore" then
      let* policy = oneofl [ "per-sender"; "empty-or-all"; "all-subsets" ] in
      (* the removed sym+por must be refused by name *)
      let* reduction = oneofl [ "none"; "sym"; "sym+por" ] in
      let* drop = bool in
      let+ max_configs = int_range 1 300 in
      [ ("crash-budget", Json.Int crashes); ("policy", Json.Str policy);
        ("reduction", Json.Str reduction); ("drop-on-crash", Json.Bool drop);
        ("max-configs", Json.Int max_configs) ]
    else
      let* weights = oneofl [ "mixed"; "fair" ] in
      let* termination = bool in
      let* coverage = bool in
      let* seed = int_range 1 1000 in
      let* trials = int_range 0 40 in
      let+ max_steps = int_range 0 80 in
      [ ("max-crashes", Json.Int crashes); ("weights", Json.Str weights);
        ("termination", Json.Bool termination); ("coverage", Json.Bool coverage);
        ("seed", Json.Int seed); ("trials", Json.Int trials);
        ("max-steps", Json.Int max_steps) ]
  in
  (Json.Obj ((("task", Json.Str task) :: common) @ rest), checkpoint)

(* An explore outcome whose search the budget cut short *)
let truncated_explore = function
  | Task.Explored (Sim.Explorer.Safe s)
  | Task.Crash_explored
      ( Sim.Explorer.Indeterminate s
      | Sim.Explorer.All_paths_decide s
      | Sim.Explorer.Stuck { stats = s; _ } ) ->
      s.Sim.Explorer.budget_exhausted
  | Task.Explored (Sim.Explorer.Violation _)
  | Task.Crash_explored (Sim.Explorer.Safety_violation _)
  | Task.Fuzzed _ | Task.Replayed _ | Task.Probed _ ->
      false

let prop_spec_space =
  QCheck.Test.make ~count:240
    ~name:"every spec runs or is refused by name, and counterexamples replay"
    (QCheck.make spec_space ~print:(fun (j, c) ->
         Printf.sprintf "%s%s" (Json.to_string j)
           (if c then " with a checkpoint" else "")))
    (fun (json, checkpoint) ->
      let named = function
        | Error e -> e <> "" || QCheck.Test.fail_report "an unnamed error"
        | Ok _ -> true
      in
      let removed =
        Option.bind (Json.mem "reduction" json) Json.get_string = Some "sym+por"
      in
      match Task.spec_of_json json with
      | Error e when removed ->
          e = removed_reduction
          || QCheck.Test.fail_reportf "sym+por refused as %S" e
      | _ when removed -> QCheck.Test.fail_report "sym+por accepted"
      | Error _ as e -> named e
      | Ok spec -> (
          (* the run at [domains], having passed the checks a run owes
             on its own *)
          let run_at domains =
            with_tmp_dir (fun dir ->
                let path = Filename.concat dir "c.ckpt" in
                let c =
                  Task.open_campaign
                    ?checkpoint:(if checkpoint then Some path else None)
                    ~policy:{ Checkpoint.every_items = 7; every_seconds = infinity }
                    ~interrupt:(fun () -> false) spec
                in
                let r = Task.run ~domains ~ckpt:c.Task.ckpt spec in
                (match r with
                | Error _ as e -> ignore (named e)
                | Ok outcome -> (
                    (* a checkpoint the campaign wrote reopens as its own *)
                    if
                      Sys.file_exists path
                      && (Task.open_campaign ~resume:path
                            ~interrupt:(fun () -> false) spec).Task.rejected
                         <> None
                    then QCheck.Test.fail_report "its own checkpoint is rejected";
                    match (outcome, spec) with
                    | Task.Fuzzed (Sim.Fuzz.Violation_found v, _), Task.Fuzz f -> (
                        let sched = Filename.concat dir "v.sched" in
                        ok_or_fail
                          (Sim.Trace_io.save_schedule ~model:f.Task.f_model
                             ~path:sched v.Sim.Fuzz.shrunk);
                        match Task.replay ~path:sched f with
                        | Ok (Task.Replayed { violation = Some _; _ }) -> ()
                        | Ok _ -> QCheck.Test.fail_report "the replay violates nothing"
                        | Error e -> QCheck.Test.fail_reportf "replay: %s" e)
                    | _ -> ()));
                r)
          in
          match (run_at 1, run_at 2) with
          | Error e1, Error e2 ->
              e1 = e2
              || QCheck.Test.fail_reportf "refused as %S at one domain, %S at two"
                   e1 e2
          | Ok o1, Ok o2 ->
              let l1 = (Task.summarize o1).Task.lines
              and l2 = (Task.summarize o2).Task.lines in
              l1 = l2 || truncated_explore o1 || truncated_explore o2
              || QCheck.Test.fail_reportf "lines differ: %s at one domain, %s at two"
                   (String.concat " | " l1) (String.concat " | " l2)
          | Ok _, Error e | Error e, Ok _ ->
              QCheck.Test.fail_reportf "refused at one domain count only: %s" e))

(* ---------- result lines: the daemon stores what the CLI prints ---------- *)

(* the stdout lines of [ksa args], the binary beside this test's
   directory *)
let ksa_lines args =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "ksa.exe")
  in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_lines ic in
  ignore (Unix.close_process_in ic);
  lines

(* A coverage campaign and a violating coverage hunt, run by the
   in-process daemon: each stored summary holds exactly the lines
   [ksa fuzz] prints for the same flags, but --save-schedule's own. *)
let test_daemon_cli_lines () =
  let cases =
    [
      ( {|{"task":"fuzz","n":3,"l":2,"k":1,"max-crashes":1,"coverage":true,"seed":7,"trials":200}|},
        [ "-n"; "3"; "-l"; "2"; "-k"; "1"; "--max-crashes"; "1"; "--coverage";
          "--seed"; "7"; "--trials"; "200" ] );
      ( {|{"task":"fuzz","n":4,"l":2,"k":1,"coverage":true,"seed":3,"trials":5000}|},
        [ "-n"; "4"; "-l"; "2"; "-k"; "1"; "--coverage"; "--seed"; "3";
          "--trials"; "5000" ] );
    ]
  in
  with_tmp_dir (fun dir ->
      let t = ok_or_fail (Jobstore.open_dir ~dir) in
      let jobs =
        List.map
          (fun (text, flags) ->
            let spec = ok_or_fail (Result.bind (Json.parse text) Task.spec_of_json) in
            ((ok_or_fail (Jobstore.submit t spec)).Jobstore.id, flags))
          cases
      in
      Alcotest.(check int) "daemon exits clean" 0 (Daemon.serve (batch_cfg ~dir));
      let t' = ok_or_fail (Jobstore.open_dir ~dir) in
      List.iter
        (fun (id, flags) ->
          let sched = Filename.concat dir "cli.sched" in
          let cli =
            List.filter
              (fun l -> l <> "shrunk schedule written to " ^ sched)
              (ksa_lines (("fuzz" :: flags) @ [ "--save-schedule"; sched ]))
          in
          match Jobstore.get t' id with
          | Some { Jobstore.state = Jobstore.Done; result = Some s; _ } ->
              Alcotest.(check (list string)) "stored lines = CLI stdout" cli
                s.Task.lines;
              Alcotest.(check int)
                "a coverage line, and a schedule line after a violation"
                (if s.Task.verdict = "violation" then 3 else 2)
                (List.length cli)
          | _ -> Alcotest.fail (Printf.sprintf "job %d not done" id))
        jobs)

(* A job record the parent's [summary_to_json] wrote, byte for byte:
   it loads, with its headline as its one line. *)
let test_parent_summary_loads () =
  let text =
    {|{"id":1,"spec":{"task":"fuzz","algo":"kset-flp","n":3,"k":1,"l":2,"wait":2,"dead":[],"seed":7,"trials":200,"max-steps":200,"max-crashes":1,"weights":"mixed","termination":false,"coverage":true,"model":"crash"},"state":"done","attempts":1,"requeues":0,"retry-max":3,"resumable":false,"result":{"verdict":"clean","exit":0,"detail":"CLEAN: 200 trials, no violation","items":200}}|}
  in
  match Result.bind (Json.parse text) Jobstore.job_of_json with
  | Ok { Jobstore.result = Some s; _ } ->
      Alcotest.(check (list string)) "lines"
        [ "CLEAN: 200 trials, no violation" ] s.Task.lines;
      Alcotest.(check string) "verdict" "clean" s.Task.verdict;
      (* the headline is stored twice, as [detail] and as the first
         line: a record where the two disagree is refused *)
      let with_lines ls =
        Json.Obj
          [ ("verdict", Json.Str "clean"); ("exit", Json.Int 0);
            ("detail", Json.Str s.Task.detail);
            ("lines", Json.List (List.map (fun l -> Json.Str l) ls));
            ("items", Json.Int 200) ]
      in
      Alcotest.(check bool) "headline first" true
        (Result.is_ok (Task.summary_of_json (with_lines [ s.Task.detail; "x" ])));
      Alcotest.(check (result reject string)) "another first line"
        (Error "summary: bad field \"lines\"")
        (Result.map ignore (Task.summary_of_json (with_lines [ "x"; s.Task.detail ])))
  | Ok _ -> Alcotest.fail "no result"
  | Error e -> Alcotest.fail e

let suites =
  [
    ( "svc json",
      [
        Alcotest.test_case "roundtrip and fixpoint" `Quick test_json_roundtrip;
        Alcotest.test_case "int/float split" `Quick test_json_int_float_split;
        Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
        Alcotest.test_case "malformed inputs are located errors" `Quick
          test_json_errors;
      ] );
    ( "svc backoff",
      [
        Alcotest.test_case "capped exponential growth" `Quick
          test_backoff_growth;
        Alcotest.test_case "jitter is bounded and deterministic" `Quick
          test_backoff_jitter;
        Alcotest.test_case "invalid arguments rejected" `Quick
          test_backoff_invalid;
        Alcotest.test_case "faultsim: nth-hit arming" `Quick
          test_faultsim_arm_nth;
      ] );
    ( "svc task",
      [
        Alcotest.test_case "fingerprints match the historical CLI" `Quick
          test_task_fingerprints;
        Alcotest.test_case "spec json roundtrip" `Quick
          test_task_spec_json_roundtrip;
        Alcotest.test_case "spec validation is eager" `Quick
          test_task_spec_validation;
        Alcotest.test_case "probe fails then succeeds" `Quick test_task_probe;
        Alcotest.test_case "load_resume names its refusal" `Quick
          test_task_load_resume_errors;
        Alcotest.test_case "resumed crash-free explore runs at d=2" `Quick
          test_task_resume_explore_domains;
        Alcotest.test_case "coverage fuzz resumes at d=2" `Quick
          test_task_resume_fuzz_domains;
        Alcotest.test_case "explore spec runs to a summary" `Quick
          test_task_explore_runs;
        Alcotest.test_case "spec ranges refused by field name" `Quick
          test_task_spec_ranges;
        Alcotest.test_case "parent spec_to_json output still loads" `Quick
          test_task_old_specs_load;
        QCheck_alcotest.to_alcotest prop_spec_space;
      ] );
    ( "svc jobstore",
      [
        Alcotest.test_case "submit/update survive reopen" `Quick
          test_jobstore_roundtrip;
        Alcotest.test_case "running orphans adopted durably" `Quick
          test_jobstore_adopts_orphans;
        Alcotest.test_case "crash at every transition instant" `Quick
          test_jobstore_crash_sweep;
        Alcotest.test_case "an unreadable record keeps its id" `Quick
          test_jobstore_skipped_id_kept;
        Alcotest.test_case "a stored sym+por spec is skipped by name" `Quick
          test_jobstore_removed_reduction;
        Alcotest.test_case "a parent summary record still loads" `Quick
          test_parent_summary_loads;
      ] );
    ( "svc daemon",
      [
        Alcotest.test_case "retry with backoff until done" `Quick
          test_daemon_retry_until_done;
        Alcotest.test_case "retries exhausted leaves a dead job" `Quick
          test_daemon_retry_until_dead;
        Alcotest.test_case "campaign summary identical to direct run" `Quick
          test_daemon_runs_campaigns;
        Alcotest.test_case "strict resume rejection reruns fresh" `Quick
          test_daemon_strict_resume_rejection;
        Alcotest.test_case "http session: deadline, cancel, drain" `Quick
          test_daemon_http_session;
        Alcotest.test_case "fd-algorithm fuzz spec refused with 400" `Quick
          test_daemon_refuses_fd_fuzz;
        Alcotest.test_case "crashing and misspelt specs refused with 400"
          `Quick test_daemon_refuses_crash_specs;
        Alcotest.test_case "stored result lines equal ksa fuzz stdout" `Quick
          test_daemon_cli_lines;
      ] );
  ]
