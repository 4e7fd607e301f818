(* ksa — command-line front end to the k-set agreement reproduction.

   Subcommands:
     experiments    run the E1–E14 reproduction harness
     border         print the solvability-border tables
     simulate       run one algorithm under one adversary, print the run
     explore        exhaustive schedule-space search (optionally multicore)
     fuzz           random schedule search with counterexample shrinking
     screen         Theorem-1 screening of an algorithm
     paste          execute the Lemma-12 pasting construction
     independence   T-independence check of an algorithm
     ho             run a Heard-Of round-model algorithm
     serve          the crash-tolerant campaign daemon
     job            the daemon's HTTP client

   explore and fuzz are thin clients of Ksa_svc.Task: their flags are
   Task's spec table, read into the JSON object of a job spec and built
   by Task.spec_of_json as a submitted job is; Task.open_campaign opens
   it as the daemon opens a job, and they print the lines
   Task.summarize gives every outcome (the lines the daemon stores in
   its job records), exiting with its code. *)

open Cmdliner
module Sim = Ksa_sim
module Core = Ksa_core
module Fd = Ksa_fd
module Rng = Ksa_prim.Rng
module Metrics = Ksa_prim.Metrics
module Clock = Ksa_prim.Clock
module Backoff = Ksa_prim.Backoff
module Checkpoint = Ksa_sim.Checkpoint
module Svc = Ksa_svc

(* ---------- graceful shutdown ---------- *)

(* SIGINT/SIGTERM raise this flag; the campaign drivers poll it
   through their Checkpoint controller, flush a final checkpoint, and
   return a truncated verdict — at which point the command notices the
   flag, writes --stats-json, prints the resume command and exits
   130.  Nothing happens inside the handler itself beyond the atomic
   store. *)
let shutdown = Atomic.make false

let install_signal_handlers () =
  let handle _ = Atomic.set shutdown true in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle handle) with _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let resume_hint ~checkpoint =
  match checkpoint with
  | None -> ()
  | Some path ->
      let argv = Array.to_list Sys.argv in
      let has_resume =
        List.exists
          (fun a ->
            a = "--resume"
            || (String.length a > 9 && String.sub a 0 9 = "--resume="))
          argv
      in
      let cmd =
        String.concat " "
          (if has_resume then argv else argv @ [ "--resume"; path ])
      in
      Printf.eprintf "ksa: interrupted — resume with:\n  %s\n%!" cmd

(* ---------- shared argument parsing ---------- *)

(* Every command returns its exit code.  [let*] runs the rest of a
   command on [Ok]; an [Error]'s message goes to stderr and the
   command exits 1. *)
let ( let* ) r f =
  match r with
  | Ok x -> f x
  | Error e ->
      prerr_endline e;
      1

(* [f] over a list, stopping at the first error *)
let rec map_ok f = function
  | [] -> Ok []
  | x :: xs ->
      Result.bind (f x) (fun y -> Result.map (List.cons y) (map_ok f xs))

let groups_of_string s =
  (* "0,1|2,3,4" -> [[0;1];[2;3;4]] *)
  let pid x =
    match int_of_string_opt x with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "bad process id %S in groups %S" x s)
  in
  String.split_on_char '|' s
  |> map_ok (fun part ->
         String.split_on_char ',' part
         |> List.map String.trim
         |> List.filter (fun x -> x <> "")
         |> map_ok pid)

(* One field of Task's spec table as a flag: [Some (key, value)] when
   it is given on the command line, [None] when it is absent (the
   table default then applies, and --help shows it). *)
let field_term (f : Svc.Task.field) =
  let absent =
    match f.default with
    | Some (Svc.Json.Int i) -> Some (string_of_int i)
    | Some (Svc.Json.Str s) -> Some s
    | _ -> None
  in
  let names = Arg.info f.flags ~docv:f.docv ~doc:f.doc ?absent in
  let given parse to_json =
    Term.(
      const (Option.map (fun v -> (f.key, to_json v)))
      $ Arg.(value & opt (some parse) None & names))
  in
  match f.shape with
  | Svc.Task.Int -> given Arg.int (fun i -> Svc.Json.Int i)
  | String -> given Arg.string (fun s -> Svc.Json.Str s)
  | Float -> given Arg.float (fun x -> Svc.Json.Float x)
  | Ints ->
      given Arg.(list int) (fun l ->
          Svc.Json.List (List.map (fun i -> Svc.Json.Int i) l))
  | Bool ->
      Term.(
        const (fun b -> if b then Some (f.key, Svc.Json.Bool true) else None)
        $ Arg.(value & flag names))

(* A task's table as one term: the JSON object of the flags given,
   for Task.spec_of_json to read with the table defaults *)
let spec_term ~task fields =
  List.fold_right
    (fun f rest ->
      Term.(const (fun kv kvs -> Option.to_list kv @ kvs) $ field_term f $ rest))
    fields
    (Term.const [ ("task", Svc.Json.Str task) ])
  |> Term.map (fun kvs -> Svc.Json.Obj kvs)

(* A table field as a plain typed flag with the table's default, for
   the commands that take it but build no spec *)
let field_arg read f =
  Term.(const (fun kv -> read (Svc.Json.Obj (Option.to_list kv)) f) $ field_term f)

let n_arg = field_arg Svc.Task.read_int Svc.Task.Fields.n
let k_arg = field_arg Svc.Task.read_int Svc.Task.Fields.k
let seed_arg = field_arg Svc.Task.read_int Svc.Task.Fields.seed
let algo_arg = field_arg Svc.Task.read_string Svc.Task.Fields.algo
let wait_arg = field_arg Svc.Task.read_int Svc.Task.Fields.wait
let dead_arg = field_arg Svc.Task.read_ints Svc.Task.Fields.dead
let model_arg = field_arg Svc.Task.read_string Svc.Task.Fields.model

let f_arg =
  Arg.(value & opt int 2 & info [ "f"; "faults" ] ~docv:"F" ~doc:"Failure budget.")

(* -l for the commands that default it otherwise than the campaigns *)
let l_arg ~default =
  let f = Svc.Task.Fields.l in
  Arg.(
    value
    & opt (some int) None
    & info f.flags ~docv:f.docv
        ~doc:(Printf.sprintf "Protocol parameter L (default %s)." default))

let groups_arg ~doc =
  Arg.(value & opt (some string) None & info [ "groups" ] ~docv:"GROUPS" ~doc)

(* synod needs a (Sigma, Omega) oracle *)
let synod_oracle ~pattern ~seed =
  let leader =
    match Sim.Failure_pattern.correct pattern with
    | p :: _ -> p
    | [] -> 0
  in
  let sigma = Fd.Sigma.blocks ~k:1 ~pattern ~stab:6 ~horizon:60 () in
  let omega =
    Fd.Omega.gen
      ~chaos:
        (Fd.Omega.random_chaos
           ~rng:(Rng.create ~seed:(seed + 99))
           ~n:(Sim.Failure_pattern.n pattern)
           ~k:1)
      ~k:1 ~pattern ~leaders:[ leader ] ~tgst:6 ~horizon:60 ()
  in
  Fd.History.oracle (Fd.History.combine sigma omega)

(* ---------- experiments ---------- *)

let experiments only =
  let table = Core.Experiments.table in
  match List.find_opt (fun id -> not (List.mem_assoc id table)) only with
  | Some id ->
      Printf.eprintf "ksa: unknown experiment id %S (valid ids: %s)\n%!" id
        (String.concat " " (List.map fst table));
      1
  | None -> Core.Experiments.(exit_code (all ~only Format.std_formatter))

let only_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "only" ] ~docv:"IDS" ~doc:"Comma-separated experiment ids (E1..E14).")

let experiments_cmd =
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Run the reproduction harness (E1-E14); exit 1 on any MISMATCH.")
    Term.(const experiments $ only_arg)

(* ---------- border ---------- *)

let border n =
  let ppf = Format.std_formatter in
  (* one row per f, one column per k *)
  let table mark holds =
    for f = 1 to n - 1 do
      Format.fprintf ppf "f=%-2d " f;
      for k = 1 to n - 1 do
        Format.fprintf ppf " %s   " (if holds ~n ~f ~k then mark else ".")
      done;
      Format.fprintf ppf "@."
    done
  in
  Format.fprintf ppf "Theorem 8 (f initial crashes): solvable iff kn > (k+1)f@.";
  Format.fprintf ppf "     ";
  for k = 1 to n - 1 do
    Format.fprintf ppf "k=%-2d " k
  done;
  Format.fprintf ppf "@.";
  table "S" Core.Border.theorem8_solvable;
  Format.fprintf ppf
    "@.Theorem 2 (one live crash): impossible iff k(n-f) < n ('X')@.";
  table "X" Core.Border.theorem2_impossible;
  Format.fprintf ppf
    "@.(Sigma_k,Omega_k) (Cor. 13): solvable iff k=1 or k=n-1@.     ";
  for k = 1 to n - 1 do
    Format.fprintf ppf "%s "
      (if Core.Border.corollary13_solvable ~n ~k then "S" else "X")
  done;
  Format.fprintf ppf "@.";
  0

let border_cmd =
  Cmd.v
    (Cmd.info "border" ~doc:"Print the solvability borders for a given n.")
    Term.(const border $ n_arg)

(* ---------- simulate ---------- *)

let simulate algo_name n f l wait_for seed adversary dead save_schedule
    replay verbose check_model =
  let l = Option.value l ~default:(max 1 (n - f)) in
  let* (module A : Sim.Algorithm.S) =
    Svc.Task.algo_conv ~n ~l ~wait_for algo_name
  in
  let module E = Sim.Engine.Make (A) in
  let pattern = Sim.Failure_pattern.initial_dead ~n ~dead in
  let rng = Rng.create ~seed in
  (* a replay must take every step of its schedule: [check] refuses a
     run that stopped short *)
  let* adv, check =
    match replay with
    | Some path -> (
        match Sim.Trace_io.load_schedule ~path () with
        | Ok descs -> Ok (Sim.Replay.strict descs)
        | Error e -> Error ("replay: " ^ e))
    | None ->
        Result.map
          (fun adv -> (adv, Result.ok))
          (match adversary with
          | "fair" -> Ok (Sim.Adversary.fair ~rng)
          | "round-robin" -> Ok (Sim.Adversary.round_robin ())
          | "lossy" -> Ok (Sim.Adversary.fair_lossy ~rng ~p_defer:0.5)
          | s when String.length s > 10 && String.sub s 0 10 = "partition:" ->
              groups_of_string (String.sub s 10 (String.length s - 10))
              |> Result.map (fun groups -> Sim.Adversary.partition ~groups ())
          | s when String.length s > 5 && String.sub s 0 5 = "solo:" ->
              groups_of_string (String.sub s 5 (String.length s - 5))
              |> Result.map (fun groups ->
                     Sim.Adversary.sequential_solo ~groups)
          | other -> Error ("unknown adversary " ^ other))
  in
  let fd = if A.uses_fd then Some (synod_oracle ~pattern ~seed) else None in
  let* run =
    match E.run ?fd ~n ~inputs:(Sim.Value.distinct_inputs n) ~pattern adv with
    | run -> Result.map_error (fun e -> "replay: " ^ e) (check run)
    | exception E.Invalid_action e when replay <> None -> Error ("replay: " ^ e)
  in
  Format.printf "%a@." Sim.Run.pp_summary run;
  if verbose then Sim.Trace_io.pp_events Format.std_formatter run;
  if check_model then begin
    let admissible =
      Sim.Model_check.admissible_models run ~phi:n ~delta:(2 * n)
    in
    Format.printf "DDS cube (Φ=%d, Δ=%d): admissible in %d/32 models@." n
      (2 * n) (List.length admissible);
    List.iter (fun m -> Format.printf "  %a@." Sim.Model.pp m) admissible
  end;
  match save_schedule with
  | Some path -> (
      match
        Sim.Trace_io.save_schedule ~path (Sim.Trace_io.schedule_of_run run)
      with
      | Ok () ->
          Format.printf "schedule saved to %s@." path;
          0
      | Error e ->
          Printf.eprintf "ksa: %s\n%!" e;
          1)
  | None -> 0

let adversary_arg =
  Arg.(
    value
    & opt string "fair"
    & info [ "adversary" ] ~docv:"ADV"
        ~doc:
          "Adversary: fair, round-robin, lossy, partition:0,1|2,3 or \
           solo:0|1|2,3.")

let save_schedule_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-schedule" ] ~docv:"FILE"
        ~doc:"Write the run's schedule (replayable) to FILE.")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Replay a schedule saved with --save-schedule instead of using \
              an adversary.  A schedule the replay cannot take to its end \
              exits 1, naming the first step it could not take.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Dump the full event log.")

let check_model_arg =
  Arg.(
    value & flag
    & info [ "check-model" ]
        ~doc:
          "Report which of the 32 Dolev-Dwork-Stockmeyer models admit the \
           run (with Φ = n and Δ = 2n for the synchronous choices).")

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one algorithm under one adversary.")
    Term.(
      const simulate $ algo_arg $ n_arg $ f_arg $ l_arg ~default:"n-f"
      $ wait_arg $ seed_arg
      $ adversary_arg $ dead_arg $ save_schedule_arg $ replay_arg
      $ verbose_arg $ check_model_arg)

(* ---------- the campaign front shared by explore and fuzz ---------- *)

(* --checkpoint-every SPEC: "2s"/"0.5s" = seconds, a plain integer =
   work items (configs or trials) between writes.  A malformed SPEC
   exits 1 before the command runs (explore, fuzz and serve alike). *)
let checkpoint_every_arg =
  let policy = function
    | None -> Checkpoint.default_policy
    | Some spec -> (
        let s = String.trim spec in
        let n = String.length s in
        let parsed =
          if n > 1 && (s.[n - 1] = 's' || s.[n - 1] = 'S') then
            match float_of_string_opt (String.sub s 0 (n - 1)) with
            | Some sec when sec > 0. ->
                Some
                  { Checkpoint.default_policy with Checkpoint.every_seconds = sec }
            | _ -> None
          else
            match int_of_string_opt s with
            | Some k when k > 0 ->
                Some { Checkpoint.every_items = k; every_seconds = infinity }
            | _ -> None
        in
        match parsed with
        | Some p -> p
        | None ->
            prerr_endline (Printf.sprintf "bad --checkpoint-every %S" s);
            exit 1)
  in
  Term.(
    const policy
    $ Arg.(
        value
        & opt (some string) None
        & info [ "checkpoint-every" ] ~docv:"SPEC"
            ~doc:
              "Checkpoint cadence: '2s' or '0.5s' for seconds, a plain \
               integer for work items (configs or trials) between writes.  \
               Default: 5s."))

(* --domains D below 1 exits 1 before the command runs (explore, fuzz
   and serve alike) *)
let at_least_one_domain d =
  if d < 1 then begin
    prerr_endline (Printf.sprintf "bad --domains %d (at least 1)" d);
    exit 1
  end;
  d

let domains_arg =
  Term.(
    const (Option.map at_least_one_domain)
    $ Arg.(
        value
        & opt (some int) None
        & info [ "domains" ] ~docv:"D"
            ~doc:
              "Worker domains for the parallel driver (default: KSA_DOMAINS \
               or the recommended domain count; 1 = sequential). Workers \
               share one dedup table and steal work, so any D admits the \
               same configurations; use up to the physical core count — \
               beyond it extra domains only add GC synchronisation."))

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write a JSON snapshot of the instrumentation counters (configs \
           visited, terminals, memo hits, interner occupancy, ...) to FILE \
           after the search.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Periodically write a crash-safe campaign checkpoint to FILE \
           (atomic rename, CRC-framed).  On SIGINT/SIGTERM a final \
           checkpoint is flushed and the exit code is 130; resume with \
           --resume FILE.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume the campaign from a checkpoint written by --checkpoint.  \
           The resumed campaign reports verdict and stats identical to an \
           uninterrupted run.  A corrupt or mismatched checkpoint falls \
           back to a fresh campaign with a warning.")

let strict_resume_arg =
  Arg.(
    value & flag
    & info [ "strict-resume" ]
        ~doc:
          "Refuse to run when --resume names a checkpoint that cannot be \
           resumed (missing, corrupt, wrong kind, or written under \
           different campaign parameters): print the reason and exit 5 \
           instead of warning and starting a fresh campaign.  Scripted \
           campaigns should set this — a silent fresh start hides lost \
           progress.")

type campaign = {
  domains : int option;
  stats_json : string option;
  checkpoint : string option;
  every : Checkpoint.policy;
  resume : string option;
  strict_resume : bool;
}

let campaign_args =
  let make domains stats_json checkpoint every resume strict_resume =
    { domains; stats_json; checkpoint; every; resume; strict_resume }
  in
  Term.(
    const make $ domains_arg $ stats_json_arg $ checkpoint_arg
    $ checkpoint_every_arg $ resume_arg $ strict_resume_arg)

(* Print the outcome's lines and return its exit code; [extras] prints
   what follows them and may override the code. *)
let report ?(extras = fun _ code -> code) result =
  let* outcome = result in
  let s = Svc.Task.summarize outcome in
  List.iter (Format.printf "%s@.") s.Svc.Task.lines;
  extras outcome s.Svc.Task.exit_code

(* The tail of every campaign command: --stats-json (a failed write
   exits 1), then after SIGINT/SIGTERM the resume hint and exit 130. *)
let finish c code =
  let stats_code =
    match c.stats_json with
    | None -> 0
    | Some path -> (
        match Metrics.write_json ~path (Metrics.snapshot ()) with
        | Ok () ->
            Format.eprintf "stats written to %s@." path;
            0
        | Error e ->
            Printf.eprintf "ksa: %s\n%!" e;
            1)
  in
  if Atomic.get shutdown then begin
    resume_hint ~checkpoint:c.checkpoint;
    130
  end
  else if stats_code <> 0 then stats_code
  else code

(* [--progress]: a sampler domain prints a throughput line on stderr
   roughly once a second until the search returns.  It only reads the
   process-global metrics counters — no coupling to the explorer. *)
let with_progress enabled f =
  if not enabled then f ()
  else begin
    let stop = Atomic.make false in
    let sampler =
      Domain.spawn (fun () ->
          let admitted = Metrics.counter "explore.admitted" in
          let dedup = Metrics.counter "explore.dedup.hits" in
          let terminals = Metrics.counter "explore.terminals" in
          let hits = Metrics.counter "sim.memo.hits" in
          let misses = Metrics.counter "sim.memo.misses" in
          let orbit = Metrics.counter "explore.orbit_hits" in
          (* park at 100ms between stop-flag checks; no cpu_relax phase
             — this domain is pure bookkeeping *)
          let sp = Backoff.Spin.make ~relax:0 ~floor:0.1 ~cap:0.1 () in
          let rec loop last_n last_t =
            if Atomic.get stop then ()
            else begin
              Backoff.Spin.wait sp;
              let elapsed = Clock.elapsed_s ~since:last_t in
              if elapsed < 1.0 then loop last_n last_t
              else begin
                let n = Metrics.value admitted in
                let h = Metrics.value hits and m = Metrics.value misses in
                let memo_pct =
                  if h + m = 0 then 0.
                  else 100. *. float_of_int h /. float_of_int (h + m)
                in
                (* running reduction ratio: arrivals collapsed per
                   admitted configuration; only meaningful (and only
                   nonzero) under --reduction *)
                let reduction_note =
                  let o = Metrics.value orbit in
                  if o = 0 then ""
                  else
                    Printf.sprintf ", reduction x%.2f"
                      (float_of_int (n + o) /. float_of_int n)
                in
                Printf.eprintf
                  "progress: %d configs (%.0f/s), %d dedup hits, %d \
                   terminals, memo %.0f%% hit%s\n\
                   %!"
                  n
                  (float_of_int (n - last_n) /. elapsed)
                  (Metrics.value dedup) (Metrics.value terminals) memo_pct
                  reduction_note;
                loop n (Clock.now_ns ())
              end
            end
          in
          loop (Metrics.value admitted) (Clock.now_ns ()))
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join sampler)
      f
  end

(* Run [spec] as a campaign: Task opens it (a rejected resume warns, or
   exits 5 under --strict-resume), then signal handlers, the run, its
   lines, and [finish].  [expired] (a wall-clock budget) is polled with
   the signal flag as the campaign's one interrupt. *)
let run_campaign ?(progress = false) ?(expired = fun () -> false) ?extras c
    spec =
  let domains =
    match c.domains with
    | Some d -> d
    | None -> Sim.Explorer.default_domains ()
  in
  let { Svc.Task.ckpt; payload; rejected } =
    Svc.Task.open_campaign ?checkpoint:c.checkpoint ~policy:c.every
      ?resume:c.resume
      ~interrupt:(fun () -> Atomic.get shutdown || expired ())
      spec
  in
  (match rejected with
  | Some reason when c.strict_resume ->
      Printf.eprintf "ksa: cannot resume (strict): %s\n%!" reason;
      exit 5
  | Some reason ->
      Printf.eprintf "ksa: %s — starting a fresh campaign\n%!" reason
  | None -> ());
  install_signal_handlers ();
  with_progress progress (fun () ->
      report ?extras (Svc.Task.run ~domains ~ckpt ?resume:payload spec))
  |> finish c

(* ---------- explore ---------- *)

(* Read the flags given through Task.spec_of_json, the constructor
   every spec goes through: a spec it refuses exits 1 before any
   checkpoint, resume or signal setup. *)
let explore spec progress campaign =
  let* spec = Svc.Task.spec_of_json spec in
  run_campaign ~progress campaign spec

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a configs/sec progress line to stderr about once a second \
           while the search runs.")

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively explore the schedule space, checking k-agreement on \
          every reachable configuration.  Exits 2 on a safety violation, 3 \
          on an FLP-style stuck configuration, and 4 when the configuration \
          budget truncated the search (the verdict is then indeterminate: \
          nothing is claimed about unexplored configurations).")
    Term.(
      const explore
      $ spec_term ~task:"explore" Svc.Task.explore_fields
      $ progress_arg $ campaign_args)

(* ---------- fuzz ---------- *)

let fuzz spec save_schedule replay_path max_seconds campaign =
  let* spec =
    match Svc.Task.spec_of_json spec with
    | Ok (Svc.Task.Fuzz f) -> Ok f
    | Ok (Svc.Task.Explore _ | Svc.Task.Probe _) -> Error "not a fuzz spec"
    | Error _ as e -> e
  in
  let expired =
    Option.map
      (fun s ->
        (* monotonic: a wall-clock step (NTP, DST) must not end or
           extend the campaign *)
        let start = Clock.now_ns () in
        fun () -> Clock.elapsed_s ~since:start > s)
      max_seconds
  in
  (* after the lines Task.summarize gives: the counterexample's shrunk
     schedule, saved with --save-schedule *)
  let extras outcome code =
    match (outcome, save_schedule) with
    | Svc.Task.Fuzzed (Sim.Fuzz.Violation_found v, _), Some path -> (
        match
          Sim.Trace_io.save_schedule ~model:spec.Svc.Task.f_model ~path
            v.Sim.Fuzz.shrunk
        with
        | Ok () ->
            Format.printf "shrunk schedule written to %s@." path;
            code
        | Error e ->
            Printf.eprintf "ksa: %s\n%!" e;
            1)
    | _ -> code
  in
  match replay_path with
  | Some path -> finish campaign (report (Svc.Task.replay ~path spec))
  | None -> run_campaign ?expired ~extras campaign (Svc.Task.Fuzz spec)

let max_seconds_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-seconds" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget; ends the campaign early with exit 4 after \
           flushing a final checkpoint when --checkpoint is set — an expiry \
           preserves exactly the progress a SIGINT would (note: which \
           trials ran is then timing-dependent).")

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Random schedule search with counterexample shrinking: drive the \
          algorithm through seeded random adversary actions (optionally \
          coverage-guided with --coverage), check k-agreement/validity (and \
          optionally termination), and on violation shrink the schedule to \
          a 1-minimal replayable counterexample.  Exits 2 on a violation, 0 \
          when all trials are clean, and 4 when --max-seconds cut the \
          campaign short.  With --replay FILE, re-runs a saved schedule and \
          reports its verdict instead of fuzzing (exit 1 when the replay \
          cannot take every step of the schedule).")
    Term.(
      const fuzz
      $ spec_term ~task:"fuzz" Svc.Task.fuzz_fields
      $ save_schedule_arg $ replay_arg $ max_seconds_arg $ campaign_args)

(* ---------- screen ---------- *)

let screen algo_name n f k l wait_for model exhaustive_c =
  let l = Option.value l ~default:(max 1 (n - f)) in
  let* (module A : Sim.Algorithm.S) =
    Svc.Task.algo_conv ~n ~l ~wait_for algo_name
  in
  let* model = Sim.Fault_model.of_string model in
  let partition =
    match Core.Partitioning.theorem2 ~n ~f ~k with
    | Some p -> p
    | None ->
        (* outside Theorem 2's region: use k-1 singleton groups *)
        Core.Partitioning.make ~n ~groups:(List.init (k - 1) (fun i -> [ i ]))
  in
  Format.printf "partition: %a@." Core.Partitioning.pp partition;
  let report =
    Core.Theorem1.evaluate ~exhaustive_c ~subsystem_crash_budget:1
      (module A) ~partition
  in
  Format.printf "%a@." Core.Theorem1.pp_report report;
  (match report.Core.Theorem1.portfolio.Core.Theorem1.witness with
  | Some w ->
      Format.printf "witness (%s): %a@." w.Core.Theorem1.adversary
        Sim.Run.pp_summary w.Core.Theorem1.run
  | None -> ());
  let theorem1_caught = report.Core.Theorem1.verdict = `Not_a_kset_algorithm in
  (* model-aware leg: under a non-crash model, also sweep the whole
     schedule/corruption space within the model's budget — Theorem 1
     witnesses are crash constructions and cannot see forged or
     omitted messages *)
  let* model_caught =
    match model with
    | Sim.Fault_model.Crash -> Ok false
    | m ->
        Svc.Task.run
          (Svc.Task.Explore
             {
               Svc.Task.e_algo = algo_name;
               e_n = n;
               e_k = k;
               e_l = Some l;
               e_wait = wait_for;
               e_dead = [];
               e_crash_budget = Sim.Fault_model.budget m;
               e_model = m;
               e_policy = "per-sender";
               e_reduction = Sim.Canon.No_reduction;
               e_max_configs = Some 2_000_000;
               e_drop = true;
             })
        |> Result.map (fun outcome ->
               let s = Svc.Task.summarize outcome in
               Format.printf "%s sweep: %s@."
                 (Sim.Fault_model.to_string m)
                 s.Svc.Task.detail;
               s.Svc.Task.verdict = "violation")
  in
  if theorem1_caught || model_caught then 2 else 0

let exhaustive_c_arg =
  Arg.(
    value & flag
    & info [ "exhaustive-c" ]
        ~doc:
          "Corroborate condition (C) constructively: exhaustively search \
           the restricted subsystem \xe2\x9f\xa8D\xcc\x84\xe2\x9f\xa9 for an FLP-style trap.")

let screen_cmd =
  Cmd.v
    (Cmd.info "screen"
       ~doc:
         "Theorem-1 screening: search for (dec-D) witnesses.  Exits 2 when \
          the algorithm is caught.")
    Term.(
      const screen $ algo_arg $ n_arg $ f_arg $ k_arg $ l_arg ~default:"n-f"
      $ wait_arg $ model_arg $ exhaustive_c_arg)

(* ---------- paste ---------- *)

let paste algo_name groups_str l wait_for =
  let* groups =
    match groups_str with
    | Some s -> groups_of_string s
    | None -> Ok [ [ 0 ]; [ 1 ]; [ 2; 3; 4 ] ]
  in
  let n = List.length (List.concat groups) in
  let l = Option.value l ~default:(max 1 (n / List.length groups)) in
  let* algo = Svc.Task.algo_conv ~n ~l ~wait_for algo_name in
  match Core.Pasting.lemma12 algo ~groups with
  | Error e ->
      Format.printf "construction failed: %s@." e;
      1
  | Ok r ->
      Format.printf "pasted run: %a@." Sim.Run.pp_summary r.Core.Pasting.pasted;
      Format.printf "distinct decisions: %d (k = %d groups)@."
        r.Core.Pasting.distinct_decisions (List.length groups);
      Format.printf "per-group indistinguishability: %s@."
        (String.concat " "
           (List.map string_of_bool r.Core.Pasting.per_group_indistinguishable));
      (match r.Core.Pasting.definition7 with
      | Some (Ok ()) -> Format.printf "pasted history: Definition 7 ok@."
      | Some (Error e) -> Format.printf "pasted history: %s@." e
      | None -> ());
      (match r.Core.Pasting.lemma9 with
      | Some (Ok ()) -> Format.printf "pasted history: Lemma 9 ok@."
      | Some (Error e) -> Format.printf "lemma 9: %s@." e
      | None -> ());
      0

let paste_cmd =
  Cmd.v
    (Cmd.info "paste"
       ~doc:"Execute the Lemma-12 pasting construction over a partition.")
    Term.(
      const paste $ algo_arg
      $ groups_arg ~doc:"Partition, e.g. '0|1|2,3,4'."
      $ l_arg ~default:"n / the number of groups"
      $ wait_arg)

(* ---------- independence ---------- *)

let independence algo_name n l wait_for family =
  let* algo =
    Svc.Task.algo_conv ~n ~l:(Option.value l ~default:2) ~wait_for algo_name
  in
  let unknown =
    Error
      (Printf.sprintf
         "unknown family %S (expected wait-free, singletons, or f=<int>)" family)
  in
  let* fam =
    match family with
    | "wait-free" -> Ok (Core.Independence.wait_free_family ~n)
    | "singletons" -> Ok (Core.Independence.obstruction_free_family ~n)
    | s when String.length s > 2 && String.sub s 0 2 = "f=" -> (
        match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
        | Some f -> Ok (Core.Independence.f_resilient_family ~n ~f)
        | None -> unknown)
    | _ -> unknown
  in
  let verdicts =
    Core.Independence.check_family ~max_steps:20_000 algo ~n ~family:fam
  in
  List.iter
    (fun v ->
      Format.printf "{%s}: %s@."
        (String.concat " " (List.map string_of_int v.Core.Independence.set))
        (if v.Core.Independence.independent then "independent" else "dependent"))
    verdicts;
  let all = List.for_all (fun v -> v.Core.Independence.independent) verdicts in
  Format.printf "T-independence %s@." (if all then "holds" else "fails");
  0

let family_arg =
  Arg.(
    value
    & opt string "wait-free"
    & info [ "family" ] ~docv:"FAM"
        ~doc:"Set family: wait-free, singletons, or f=<int>.")

let independence_cmd =
  Cmd.v
    (Cmd.info "independence" ~doc:"Check T-independence of an algorithm.")
    Term.(
      const independence $ algo_arg $ n_arg $ l_arg ~default:"2" $ wait_arg
      $ family_arg)

(* ---------- ho ---------- *)

let ho algo_name n rounds assignment_str =
  let module MF = Ksa_ho.Min_flood.Make (struct
    let rounds = 4
  end) in
  let algo =
    match algo_name with
    | "min-flood" -> Ok (module MF : Ksa_ho.Ho_algorithm.S)
    | "uniform-voting" -> Ok (module Ksa_ho.Uniform_voting.A : Ksa_ho.Ho_algorithm.S)
    | "last-voting" -> Ok (module Ksa_ho.Last_voting.A : Ksa_ho.Ho_algorithm.S)
    | other -> Error (Printf.sprintf "unknown HO algorithm %S" other)
  in
  let assignment =
    match assignment_str with
    | "complete" -> Ok (Ksa_ho.Assignment.complete ~n)
    | s when String.length s > 10 && String.sub s 0 10 = "partition:" ->
        groups_of_string (String.sub s 10 (String.length s - 10))
        |> Result.map (fun groups ->
               Ksa_ho.Assignment.partitioned ~n ~groups ())
    | s when String.length s > 9 && String.sub s 0 9 = "majority:" -> (
        match int_of_string_opt (String.sub s 9 (String.length s - 9)) with
        | Some seed ->
            Ok
              (Ksa_ho.Assignment.random ~rng:(Rng.create ~seed) ~n
                 ~min_size:((n / 2) + 1) ())
        | None -> Error "majority:<seed> expected")
    | other -> Error (Printf.sprintf "unknown assignment %S" other)
  in
  match (algo, assignment) with
  | Error e, _ | _, Error e ->
      prerr_endline e;
      1
  | Ok (module A), Ok assignment ->
      let module E = Ksa_ho.Engine.Make (A) in
      let o =
        E.run ~n ~inputs:(Sim.Value.distinct_inputs n) ~assignment ~rounds ()
      in
      Format.printf "%s over %d rounds: decisions={%s} distinct=%d@." A.name
        o.E.rounds_run
        (String.concat ", "
           (List.map
              (fun (p, v, r) -> Printf.sprintf "p%d=%d@r%d" p v r)
              o.E.decisions))
        (E.distinct_decisions o);
      0

let rounds_arg =
  Arg.(value & opt int 12 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to run.")

let assignment_arg =
  Arg.(
    value
    & opt string "complete"
    & info [ "assignment" ] ~docv:"HO"
        ~doc:"HO assignment: complete, partition:0,1|2,3, or majority:<seed>.")

let ho_algo_arg =
  Arg.(
    value
    & opt string "uniform-voting"
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:"HO algorithm: min-flood, uniform-voting, or last-voting.")

let ho_cmd =
  Cmd.v
    (Cmd.info "ho" ~doc:"Run a Heard-Of round-model algorithm.")
    Term.(const ho $ ho_algo_arg $ n_arg $ rounds_arg $ assignment_arg)

(* ---------- serve: the campaign daemon ---------- *)

let serve dir listen retry_base retry_cap retries seed deadline domains
    ckpt_policy exit_when_idle verbose =
  let cfg =
    {
      (Svc.Daemon.default_cfg ~dir) with
      Svc.Daemon.addr = listen;
      retry =
        { Backoff.default_retry with Backoff.base = retry_base;
          cap = retry_cap };
      retry_max = retries;
      seed;
      deadline;
      domains;
      exit_when_idle;
      ckpt_policy;
      verbose;
    }
  in
  Svc.Daemon.serve cfg

let serve_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Campaign directory (created if missing).  Holds one durable \
           record and one checkpoint file per job; a restarted daemon \
           pointed at the same directory adopts interrupted jobs and \
           resumes them.")

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Serve the job API on $(b,unix:)PATH or $(b,tcp:)HOST:PORT.  \
           Without it the daemon just runs the jobs already in the \
           directory (pair with --exit-when-idle for batch mode).")

let retry_base_arg =
  Arg.(
    value & opt float 0.5
    & info [ "retry-base" ] ~docv:"SEC"
        ~doc:"First retry backoff delay, seconds.")

let retry_cap_arg =
  Arg.(
    value & opt float 30.0
    & info [ "retry-cap" ] ~docv:"SEC"
        ~doc:"Upper bound on the exponential retry backoff, seconds.")

let retries_arg =
  Arg.(
    value & opt int 3
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Failed attempts allowed per job before it is marked dead \
           (overridable per job at submission).")

let serve_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Root seed for the deterministic retry jitter: two daemons with \
           the same seed produce the same backoff schedule.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SEC"
        ~doc:
          "Default per-job wall-clock budget.  Expiry checkpoints the job \
           and requeues it resumable instead of discarding its progress.")

let serve_domains_arg =
  Term.(
    const at_least_one_domain
    $ Arg.(
        value & opt int 1
        & info [ "domains" ] ~docv:"D"
            ~doc:
              "Worker domains per job (default 1).  Explore and fuzz jobs \
               resume on D domains, whatever count wrote their checkpoint."))

let exit_when_idle_arg =
  Arg.(
    value & flag
    & info [ "exit-when-idle" ]
        ~doc:
          "Exit 0 once no job is queued, retrying, or running — batch mode \
           for scripts and benchmarks.")

let serve_verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose" ] ~doc:"Log job transitions to stderr.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the crash-tolerant campaign daemon: a durable job queue of \
          explore/fuzz campaigns with capped-exponential retry, per-job \
          deadlines that checkpoint-and-requeue, SIGTERM drain, and \
          kill-safe restart (every job transition is an atomic durable \
          write; interrupted jobs resume from their checkpoints with \
          bit-identical verdicts).")
    Term.(
      const serve $ serve_dir_arg $ listen_arg $ retry_base_arg
      $ retry_cap_arg $ retries_arg $ serve_seed_arg $ deadline_arg
      $ serve_domains_arg $ checkpoint_every_arg $ exit_when_idle_arg
      $ serve_verbose_arg)

(* ---------- job: the daemon's HTTP client ---------- *)

let job_addr_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "addr" ] ~docv:"ADDR"
        ~doc:"The daemon's --listen address (unix:PATH or tcp:HOST:PORT).")

let job_id_arg =
  Arg.(required & pos 0 (some int) None & info [] ~docv:"ID" ~doc:"Job id.")

(* every client verb funnels through here: transport errors exit 1 *)
let job_call ~addr ~meth ~path ?body () =
  match Svc.Http.request ~addr ~meth ~path ?body () with
  | Error e ->
      Printf.eprintf "ksa: %s\n%!" e;
      exit 1
  | Ok (status, body) -> (status, body)

let job_submit addr spec_str deadline retries =
  (* validate locally first: a bad spec should not need a daemon
     round-trip to be diagnosed *)
  match
    Result.bind (Svc.Json.parse spec_str) (fun j ->
        Result.map (fun _ -> j) (Svc.Task.spec_of_json j))
  with
  | Error e ->
      Printf.eprintf "ksa: bad spec: %s\n%!" e;
      1
  | Ok spec_json -> (
      let body =
        Svc.Json.to_string
          (Svc.Json.Obj
             (("spec", spec_json)
             :: List.filter_map Fun.id
                  [
                    Option.map (fun d -> ("deadline", Svc.Json.Float d)) deadline;
                    Option.map (fun r -> ("retries", Svc.Json.Int r)) retries;
                  ]))
      in
      match job_call ~addr ~meth:"POST" ~path:"/jobs" ~body () with
      | 201, reply -> (
          match
            Result.bind (Svc.Json.parse reply) (fun j ->
                match Option.bind (Svc.Json.mem "id" j) Svc.Json.get_int with
                | Some id -> Ok id
                | None -> Error "no id in reply")
          with
          | Ok id ->
              (* just the id: scripts capture it for wait/status *)
              print_endline (string_of_int id);
              0
          | Error e ->
              Printf.eprintf "ksa: bad reply: %s\n%!" e;
              1)
      | status, reply ->
          Printf.eprintf "ksa: submit failed (%d): %s\n%!" status reply;
          1)

(* a one-request verb: the reply body is printed on an [ok] status;
   a 404 about job [id] is "no such job" *)
let job_verb ~verb ~ok ?id ~addr ~meth path =
  match job_call ~addr ~meth ~path () with
  | status, body when List.mem status ok ->
      print_endline body;
      0
  | 404, _ when id <> None ->
      Printf.eprintf "ksa: no such job %d\n%!" (Option.get id);
      1
  | status, body ->
      Printf.eprintf "ksa: %s failed (%d): %s\n%!" verb status body;
      1

let job_list addr = job_verb ~verb:"list" ~ok:[ 200 ] ~addr ~meth:"GET" "/jobs"

let job_status addr id =
  job_verb ~verb:"status" ~ok:[ 200 ] ~id ~addr ~meth:"GET"
    (Printf.sprintf "/jobs/%d" id)

let job_wait addr id timeout =
  let start = Clock.now_ns () in
  let path = Printf.sprintf "/jobs/%d" id in
  let rec poll () =
    match job_call ~addr ~meth:"GET" ~path () with
    | 404, _ ->
        Printf.eprintf "ksa: no such job %d\n%!" id;
        1
    | 200, body -> (
        let state =
          Result.bind (Svc.Json.parse body) Svc.Jobstore.job_of_json
          |> Result.map (fun j -> j.Svc.Jobstore.state)
        in
        match state with
        | Error e ->
            Printf.eprintf "ksa: bad reply: %s\n%!" e;
            1
        | Ok Svc.Jobstore.Done ->
            print_endline body;
            0
        | Ok Svc.Jobstore.Dead ->
            print_endline body;
            1
        | Ok _ ->
            if Clock.elapsed_s ~since:start > timeout then begin
              Printf.eprintf "ksa: timed out waiting for job %d\n%!" id;
              4
            end
            else begin
              Unix.sleepf 0.2;
              poll ()
            end)
    | status, body ->
        Printf.eprintf "ksa: wait failed (%d): %s\n%!" status body;
        1
  in
  poll ()

let job_cancel addr id =
  job_verb ~verb:"cancel" ~ok:[ 200; 202 ] ~id ~addr ~meth:"DELETE"
    (Printf.sprintf "/jobs/%d" id)

let job_drain addr =
  job_verb ~verb:"drain" ~ok:[ 202 ] ~addr ~meth:"POST" "/drain"

let job_cmd =
  let spec_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC"
          ~doc:
            "The job spec as JSON, e.g. \
             '{\"task\":\"explore\",\"algo\":\"kset-flp\",\"n\":4,\"k\":2}' \
             or '{\"task\":\"fuzz\",\"n\":5,\"k\":2,\"trials\":500}'.  \
             Absent keys take the CLI defaults; an unknown key or a value \
             out of range exits 1 before the daemon is dialled.")
  in
  let submit_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:"Per-job wall-clock budget (overrides the daemon default).")
  in
  let submit_retries_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry budget (overrides the daemon default).")
  in
  let timeout_arg =
    Arg.(
      value & opt float 60.0
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:"Give up (exit 4) after SEC seconds.")
  in
  Cmd.group
    (Cmd.info "job"
       ~doc:
         "Talk to a running campaign daemon: submit, inspect, await, and \
          cancel jobs over its HTTP API.")
    [
      Cmd.v
        (Cmd.info "submit"
           ~doc:
             "Submit a job; prints the assigned job id to stdout on \
              acceptance.")
        Term.(
          const job_submit $ job_addr_arg $ spec_arg $ submit_deadline_arg
          $ submit_retries_arg);
      Cmd.v
        (Cmd.info "list" ~doc:"Print all job records as JSON.")
        Term.(const job_list $ job_addr_arg);
      Cmd.v
        (Cmd.info "status" ~doc:"Print one job record as JSON.")
        Term.(const job_status $ job_addr_arg $ job_id_arg);
      Cmd.v
        (Cmd.info "wait"
           ~doc:
             "Poll until the job is done (exit 0) or dead (exit 1), \
              printing its final record; exit 4 on timeout.")
        Term.(const job_wait $ job_addr_arg $ job_id_arg $ timeout_arg);
      Cmd.v
        (Cmd.info "cancel"
           ~doc:
             "Cancel a job.  A queued or retrying job dies immediately; a \
              running job is interrupted through its checkpoint controller.")
        Term.(const job_cancel $ job_addr_arg $ job_id_arg);
      Cmd.v
        (Cmd.info "drain"
           ~doc:
             "Ask the daemon to drain: finish checkpointing the running \
              job, requeue it resumable, persist everything, and exit 0.")
        Term.(const job_drain $ job_addr_arg);
    ]

let main_cmd =
  Cmd.group
    (Cmd.info "ksa" ~version:"1.0.0"
       ~doc:
         "Executable companion to 'Easy Impossibility Proofs for k-Set \
          Agreement in Message Passing Systems'.")
    [
      experiments_cmd;
      border_cmd;
      simulate_cmd;
      explore_cmd;
      fuzz_cmd;
      screen_cmd;
      paste_cmd;
      independence_cmd;
      ho_cmd;
      serve_cmd;
      job_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
