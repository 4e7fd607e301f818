(* Tests of the benchmark itself: every workload at smoke size, the
   percentile and quartile rules, failure accounting, and daemon
   cleanup when a workload raises.  The benchmark executable is the
   first argument. *)

module J = Ksa_svc.Json
open Ksa_bench_lib

let exe =
  let p = Sys.argv.(1) in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* Run the benchmark; its exit code and stdout lines. *)
let bench args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = Proc.read_all ic in
  close_in ic;
  let code = match Proc.waitpid pid with Unix.WEXITED c -> c | _ -> -1 in
  (code, String.split_on_char '\n' (String.trim out))

let results lines =
  List.filter_map
    (fun l ->
      if String.length l > 11 && String.sub l 0 11 = "{\"correct\":" then
        Result.to_option (J.parse l)
      else None)
    lines

let e2e_names =
  [ "setup_s"; "items_per_s"; "op_latency_s_p50"; "words_per_item"; "peak_rss_mb" ]

let test_smoke () =
  let code, lines = bench [ "run"; "--profile"; "smoke"; "--workload"; "all" ] in
  let rs = results lines in
  Alcotest.(check int) "one result per workload" 5 (List.length rs);
  List.iter
    (fun r ->
      Alcotest.(check bool) "correct" true (Proc.field "correct" r = J.Bool true);
      Alcotest.(check int) "no failures" 0 (Proc.int "failed" r);
      List.iter
        (fun k ->
          let v = Proc.num "value" (Proc.field k (Proc.field "metrics" r)) in
          Alcotest.(check bool) (k ^ " is positive") true (v > 0.))
        e2e_names)
    rs;
  Alcotest.(check int) "exit 0" 0 code

let test_traced_smoke () =
  let code, lines =
    bench [ "run"; "--profile"; "smoke"; "--workload"; "explore-ckpt"; "--trace" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  match List.rev (results lines) with
  | r :: _ ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " reported") true
            (J.mem k (Proc.field "metrics" r) <> None))
        [ "engine.apply.ns"; "checkpoint.writes"; "resume.first_item.ms"; "trace.overhead_frac" ];
      Alcotest.(check bool) "checkpoints written" true
        (Proc.num "value" (Proc.field "checkpoint.writes" (Proc.field "metrics" r)) > 0.)
  | [] -> Alcotest.fail "no result line"

let test_percentiles () =
  Alcotest.(check (float 0.)) "p90 from 120 samples" 0.9 (Stats.supported_percentile 120);
  Alcotest.(check (float 0.)) "nothing above p50 from 12" 0.5 (Stats.supported_percentile 12);
  Alcotest.(check (float 0.)) "p99 from 1000" 0.99 (Stats.supported_percentile 1000);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "python quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-12)) "median" 5.5 (Stats.median (List.init 10 (fun i -> float_of_int (i + 1))))

let test_failure_accounting () =
  let code, lines =
    bench [ "run"; "--profile"; "smoke"; "--workload"; "border-seq"; "--break-oracle" ]
  in
  Alcotest.(check int) "exit 1" 1 code;
  match List.rev (results lines) with
  | r :: _ ->
      let cells = List.length (Plan.cells Plan.Smoke ~seed:1 ~pass:0) in
      Alcotest.(check int) "one failure" 1 (Proc.int "failed" r);
      Alcotest.(check int) "out of every cell" cells (Proc.int "attempted" r);
      Alcotest.(check bool) "not correct" true (Proc.field "correct" r = J.Bool false)
  | [] -> Alcotest.fail "no result line"

let test_daemon_cleanup () =
  let work = Printf.sprintf "cleanup-%d" (Unix.getpid ()) in
  Proc.mkdir_p work;
  let o =
    {
      Workloads.exe;
      profile = Plan.Smoke;
      seed = 1;
      seconds = 1.;
      work;
      break_oracle = false;
    }
  in
  let seen = ref None in
  (match
     Workloads.with_daemon o (Workloads.fresh ()) ~index:0 (fun d ->
         seen := Some d;
         failwith "workload raised")
   with
  | _ -> Alcotest.fail "the workload's exception was swallowed"
  | exception Failure _ -> ());
  match !seen with
  | None -> Alcotest.fail "the daemon never became healthy"
  | Some d ->
      Alcotest.(check bool) "daemon reaped" false (Proc.alive d.Workloads.pid);
      Alcotest.(check bool) "campaign dir removed" false (Sys.file_exists d.dir);
      Alcotest.(check bool) "socket removed" false (Sys.file_exists d.sock);
      Proc.rm_rf work

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "ksa_bench"
    [
      ( "bench",
        [
          Alcotest.test_case "smoke pass of every workload" `Quick test_smoke;
          Alcotest.test_case "traced smoke pass" `Quick test_traced_smoke;
          Alcotest.test_case "percentile and quartile rules" `Quick test_percentiles;
          Alcotest.test_case "failure accounting" `Quick test_failure_accounting;
          Alcotest.test_case "daemon cleanup on a raising workload" `Quick
            test_daemon_cleanup;
        ] );
    ]
