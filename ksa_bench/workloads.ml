(* The parent side of a run: drives one workload's units as child
   processes (or, for serve-sweep, drives daemons as their client),
   checks every verdict against its oracle, and accumulates what the
   report needs.

   Durations of the children's CPU-bound campaigns are rescaled to
   nominal machine speed by a reference kernel reading
   ([Proc.reference_s]) taken in each child before its campaign;
   serve-sweep's are reported as measured. *)

module J = Ksa_svc.Json
module Http = Ksa_svc.Http

type opts = {
  exe : string;  (** this executable, re-run for every child *)
  profile : Plan.profile;
  seed : int;
  seconds : float;  (** how long a run measures *)
  work : string;  (** scratch directory of this run, relative to the cwd *)
  break_oracle : bool;
      (** invert the first border cell's oracle: a test of the failure
          accounting, never a measurement *)
}

type acc = {
  mutable setup : float list;
  mutable ops : float list;  (** the workload's operation latencies, s *)
  mutable items : float;
  mutable item_s : float;
  mutable words : float;
  mutable word_items : float;
  mutable rss_kb : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  samples : (string, float list) Hashtbl.t;
  sums : (string, float) Hashtbl.t;
  mutable spans : J.t list;
  mutable children : int;
}

let fresh () =
  {
    setup = [];
    ops = [];
    items = 0.;
    item_s = 0.;
    words = 0.;
    word_items = 0.;
    rss_kb = 0;
    attempted = 0;
    failed = 0;
    failures = [];
    samples = Hashtbl.create 16;
    sums = Hashtbl.create 64;
    spans = [];
    children = 0;
  }

let sum acc k = Option.value ~default:0. (Hashtbl.find_opt acc.sums k)
let add acc k v = Hashtbl.replace acc.sums k (sum acc k +. v)
let samples acc k = Option.value ~default:[] (Hashtbl.find_opt acc.samples k)
let sample acc k v = Hashtbl.replace acc.samples k (v :: samples acc k)

let op acc ~what = function
  | [] -> acc.attempted <- acc.attempted + 1
  | problems ->
      acc.attempted <- acc.attempted + 1;
      acc.failed <- acc.failed + 1;
      acc.failures <- (what ^ ": " ^ String.concat "; " problems) :: acc.failures

(* Fold a child's cost report into the accumulator: Metrics deltas
   as "m:<name>", GC counts as "gc.<name>", interner sizes as maxima,
   sample streams and spans as they are. *)
let absorb acc ~tag j =
  List.iter
    (fun (k, v) -> add acc ("m:" ^ k) (Option.value ~default:0. (J.get_float v)))
    (Proc.obj_fields (Proc.field "deltas" j));
  List.iter
    (fun (k, v) -> add acc ("gc." ^ k) (Option.value ~default:0. (J.get_float v)))
    (Proc.obj_fields (Proc.field "gc" j));
  List.iter
    (fun (k, v) ->
      let v = Option.value ~default:0. (J.get_float v) in
      Hashtbl.replace acc.sums ("max:" ^ k) (Float.max v (sum acc ("max:" ^ k))))
    (Proc.obj_fields (Proc.field "sizes" j));
  List.iter
    (fun (k, v) ->
      List.iter
        (fun x -> sample acc k (Option.value ~default:0. (J.get_float x)))
        (Option.value ~default:[] (J.get_list v)))
    (Proc.obj_fields (Proc.field "samples" j));
  acc.spans <-
    List.rev_append
      (Spans.retag ~tag (Option.value ~default:[] (J.get_list (Proc.field "spans" j))))
      acc.spans

(* Peak memory counts only processes whose work the plan fixes: a
   hunt's memory grows with however long its seed takes to fail. *)
let rss acc j = acc.rss_kb <- max acc.rss_kb (Proc.int "rss_kb" j)

(* A child's slowdown, read by the reference kernel before its
   campaign, and its duration [k] at nominal machine speed. *)
let scale j =
  let s = Proc.num "scale" j in
  if s > 0. then s else 1.

let scaled j k = Proc.num k j /. scale j

let profile_name = function Plan.Full -> "full" | Plan.Smoke -> "smoke"

(* Run one unit in a fresh child; its set-up time runs from just
   before the spawn to the child's [ready]. *)
let child o acc ~trace (w : Plan.workload) unit args =
  let tag = Printf.sprintf "c%d" acc.children in
  acc.children <- acc.children + 1;
  let t0 = Proc.now_ns () in
  let argv =
    [
      "child"; unit; "--workload"; Plan.name w; "--seed"; string_of_int o.seed;
      "--t0"; string_of_int t0; "--work"; o.work; "--profile"; profile_name o.profile;
    ]
    @ (if trace then [ "--trace" ] else [])
    @ args
  in
  match Proc.run_json ~exe:o.exe argv with
  | Error e -> Error e
  | Ok j ->
      acc.setup <- scaled j "setup_s" :: acc.setup;
      absorb acc ~tag j;
      Ok j

let deltas j k = Proc.num k (Proc.field "deltas" j)

(* A child's campaign time at nominal machine speed.  Checkpoint
   writes end in fsync, whose time does not follow the CPU's speed:
   it is left out of the rescaling and added back as measured. *)
let campaign_s j =
  let io = deltas j "campaign.checkpoint.write.ns" /. 1e9 in
  ((Proc.num "wall_s" j -. io) /. scale j) +. io

(* A fixed-work campaign's throughput and allocation. *)
let count_items acc j ~items =
  acc.items <- acc.items +. items;
  acc.item_s <- acc.item_s +. campaign_s j;
  acc.words <- acc.words +. Proc.num "words" j;
  acc.word_items <- acc.word_items +. items

(* Campaign time, for the traced run's attribution ([campaign_cpu_s],
   times the domains working) and its overhead ([timed_s]). *)
let count_campaign acc j ~domains =
  add acc "campaign_cpu_s" (campaign_s j *. domains);
  add acc "timed_s" (campaign_s j)

(* ---------- border-seq, border-par2 ---------- *)

let border_oracle o ~index (c : Plan.cell) outcome seq =
  let solvable = Ksa_algo.Kset_flp.solvable ~n:c.n ~f:c.t ~k:c.k in
  let solvable = if o.break_oracle && index = 0 then not solvable else solvable in
  let verdict = Proc.str "verdict" outcome in
  let violation = verdict = "violation" in
  List.filter_map Fun.id
    [
      (if verdict = "indeterminate" then Some "indeterminate verdict" else None);
      (* per-sender cells enumerate every schedule: a violation exists
         iff Theorem 8 says the cell is unsolvable.  Empty-or-all is
         coarser and may miss one, but must never invent one. *)
      (match c.policy with
      | Ksa_sim.Explorer.Per_sender when violation = solvable ->
          Some (Printf.sprintf "verdict %s but solvable=%b" verdict solvable)
      | _ when violation && solvable -> Some "violation where solvable"
      | _ -> None);
      (match seq with
      | Some s when J.to_string s <> J.to_string outcome ->
          Some
            (Printf.sprintf "parallel %s vs sequential %s" (J.to_string outcome)
               (J.to_string s))
      | _ -> None);
    ]

(* Every cell is checked; only cells that enumerate their whole space
   are timed.  A violation stops the search at a point that depends on
   the DFS order, which depends on the input values, so its time says
   more about the seed than about the program. *)
let border_pass o acc ~trace w ~pass =
  List.iteri
    (fun index (c : Plan.cell) ->
      let what = Printf.sprintf "cell %d (%s)" index (Plan.pp_cell c) in
      match
        child o acc ~trace w "cell"
          [ "--pass"; string_of_int pass; "--index"; string_of_int index ]
      with
      | Error e -> op acc ~what [ e ]
      | Ok j ->
          let outcome = Proc.field "outcome" j in
          let admitted = deltas j "explore.admitted" in
          let dedup = deltas j "explore.dedup.hits" in
          let domains = float_of_int (max 1 (Proc.int "domains" j)) in
          rss acc j;
          count_campaign acc j ~domains;
          if Proc.str "verdict" outcome <> "violation" then begin
            acc.ops <- campaign_s j :: acc.ops;
            count_items acc j ~items:admitted
          end;
          if domains > 1. then begin
            add acc "par_campaign_cpu_s" (Proc.num "wall_s" j *. domains);
            add acc "par.admitted" admitted;
            add acc "par.dedup" dedup
          end;
          add acc
            (if Proc.field "reduced" j = J.Bool true then "keys.sym" else "keys.raw")
            (admitted +. dedup);
          op acc ~what (border_oracle o ~index c outcome (J.mem "seq" j)))
    (Plan.cells o.profile ~seed:o.seed ~pass)

(* ---------- explore-ckpt ---------- *)

let ckpt_pass o acc ~trace w ~pass =
  let c = Plan.ckpt o.profile ~seed:o.seed ~pass in
  let p = string_of_int pass in
  let keys j = add acc "keys.raw" (deltas j "explore.admitted" +. deltas j "explore.dedup.hits") in
  let full =
    match child o acc ~trace w "ckpt" [ "--pass"; p; "--full" ] with
    | Error e ->
        op acc ~what:"uninterrupted campaign" [ e ];
        None
    | Ok j ->
        let outcome = Proc.field "outcome" j in
        rss acc j;
        count_items acc j ~items:(deltas j "explore.admitted");
        count_campaign acc j ~domains:1.;
        keys j;
        let truncated = Proc.field "exhausted" outcome = J.Bool true in
        if truncated then add acc "truncated" 1.;
        (* the budget cut is deliberate: a full, untruncated search
           would mean the workload no longer measures what it says *)
        op acc ~what:"uninterrupted campaign"
          (if
             Proc.str "verdict" outcome = "safe"
             && truncated
             && Proc.int "visited" outcome = c.max_configs
           then []
           else [ "expected a safe, truncated campaign, got " ^ J.to_string outcome ]);
        Some outcome
  in
  (* the killed run, then each restart, which must end exactly where
     the uninterrupted campaign did *)
  let restarts =
    List.map
      (fun index ->
        match child o acc ~trace w "ckpt" [ "--pass"; p; "--index"; string_of_int index ] with
        | Error e -> Error (Printf.sprintf "process %d: %s" index e)
        | Ok j ->
            rss acc j;
            count_items acc j ~items:(deltas j "explore.admitted");
            count_campaign acc j ~domains:1.;
            keys j;
            if index > 0 then begin
              acc.ops <- scaled j "restart_s" :: acc.ops;
              sample acc "checkpoint.load_s" (Proc.num "load_s" j);
              sample acc "checkpoint.restore_s" (Proc.num "restore_s" j);
              sample acc "resume.first_item_s" (Proc.num "first_item_s" j);
              sample acc "resume_s"
                (Proc.num "load_s" j +. Proc.num "restore_s" j +. Proc.num "first_item_s" j)
            end;
            Ok (Proc.field "outcome" j))
      (List.init (c.restarts + 1) Fun.id)
  in
  List.iter
    (fun chain -> Proc.rm_rf (Units.ckpt_path ~work:o.work ~pass ~chain))
    [ true; false ];
  List.iteri
    (fun index r ->
      if index > 0 then
        op acc ~what:(Printf.sprintf "restart %d" index)
          (match (r, full) with
          | Error e, _ -> [ e ]
          | Ok _, None -> [ "no uninterrupted campaign to compare with" ]
          | Ok r, Some f when J.to_string r <> J.to_string f ->
              [ Printf.sprintf "restarted %s vs uninterrupted %s" (J.to_string r) (J.to_string f) ]
          | Ok _, Some _ -> [])
      else Result.iter_error (fun e -> op acc ~what:"killed campaign" [ e ]) r)
    restarts

(* ---------- fuzz-hunt ---------- *)

let fuzz_pass o acc ~trace w ~pass =
  let f = Plan.fuzz o.profile ~seed:o.seed ~pass in
  let p = string_of_int pass in
  let clean ~coverage index =
    let what =
      Printf.sprintf "%s campaign, part %d" (if coverage then "coverage" else "clean") index
    in
    let trials = if coverage then f.cov_trials else f.clean_trials in
    match
      child o acc ~trace w "clean"
        ([ "--pass"; p; "--index"; string_of_int index ]
        @ if coverage then [ "--coverage" ] else [])
    with
    | Error e ->
        op acc ~what [ e ];
        None
    | Ok j ->
        rss acc j;
        count_campaign acc j ~domains:(if coverage then 1. else 2.);
        op acc ~what
          (if Proc.str "verdict" j = "clean" && Proc.int "trials" j = trials then []
           else
             [
               Printf.sprintf "expected clean after %d trials, got %s after %d" trials
                 (Proc.str "verdict" j) (Proc.int "trials" j);
             ]);
        Some j
  in
  List.iteri
    (fun index _ ->
      Option.iter
        (fun j -> count_items acc j ~items:(float_of_int (Proc.int "trials" j)))
        (clean ~coverage:false index))
    f.clean;
  List.iteri
    (fun index _ ->
      Option.iter
        (fun j ->
          let s = scale j in
          acc.ops <-
            List.rev_append
              (List.map (fun ns -> ns /. 1e9 /. s) (Proc.nums "trial_ns" (Proc.field "samples" j)))
              acc.ops)
        (clean ~coverage:true index))
    f.cov;
  List.iteri
    (fun index _ ->
      let what = Printf.sprintf "hunt %d" index in
      match child o acc ~trace w "hunt" [ "--pass"; p; "--index"; string_of_int index ] with
      | Error e -> op acc ~what [ e ]
      | Ok j ->
          count_campaign acc j ~domains:1.;
          add acc "hunts" 1.;
          add acc "hunt.restarts" (float_of_int (Proc.int "attempts" j - 1));
          sample acc "ttv_s" (Proc.num "wall_s" j);
          sample acc "ttv_trials" (float_of_int (Proc.int "trials" j));
          let yes k = Proc.field k j = J.Bool true in
          (* Replay resolves a delivery by its per-channel delivery
             count, which names the wrong message once the fuzzer has
             delivered a channel out of send order; the shrinker then
             returns the schedule unshrunk.  That library defect is
             counted (fuzz.unreplayable_frac), not failed: the
             violation itself is re-checked on the recorded run, and a
             schedule the shrinker did cut must replay. *)
          if yes "found" then sample acc "unreplayable" (if yes "replays" then 0. else 1.);
          op acc ~what
            (if not (yes "found") then
               [
                 Printf.sprintf "no violation in %d trials over %d seeds" (Proc.int "trials" j)
                   (Proc.int "attempts" j);
               ]
             else if not (yes "recorded_violates") then
               [ "the recorded run does not violate the property" ]
             else if yes "shrunk" && not (yes "replays") then
               [ "shrunk schedule does not replay to a violation" ]
             else []))
    f.hunts

(* ---------- serve-sweep ---------- *)

type daemon = { pid : int; sock : string; addr : string; dir : string; stats : string }

let request d ~meth ~path ?body () = Http.request ~addr:d.addr ~meth ~path ?body ()

let rec wait_health d ~deadline =
  match request d ~meth:"GET" ~path:"/health" () with
  | Ok (200, _) -> ()
  | _ when Proc.now_ns () > deadline -> failwith "daemon never answered /health"
  | _ ->
      if not (Proc.alive d.pid) then failwith "daemon exited before /health";
      Unix.sleepf 0.0002;
      wait_health d ~deadline

(* Start a daemon child, hand it to [f] once /health answers, then
   drain it and return what [f] returned with the cost the daemon
   reports.  Whatever [f] does — return or raise — the daemon is
   drained (or killed) and reaped, and its directory removed.  The
   set-up time, from the spawn to /health, goes to [acc]. *)
let with_daemon o acc ~index f =
  let base = Filename.concat o.work (Printf.sprintf "serve-%d" index) in
  (* a path relative to the cwd keeps the socket name inside the
     108-byte sun_path limit however deep the checkout sits *)
  let sock = Filename.concat o.work (Printf.sprintf "s%d.sock" index) in
  let d = { pid = 0; sock; addr = "unix:" ^ sock; dir = base; stats = base ^ ".json" } in
  let t0 = Proc.now_ns () in
  let pid =
    Proc.spawn ~exe:o.exe
      [
        "child"; "serve"; "--dir"; d.dir; "--addr"; d.addr; "--stats"; d.stats;
        "--seed"; string_of_int o.seed;
      ]
  in
  let d = { d with pid } in
  let stop () =
    if Proc.alive pid then begin
      ignore (request d ~meth:"POST" ~path:"/drain" ());
      ignore (Proc.reap ~timeout:10. pid)
    end;
    List.iter Proc.rm_rf [ d.dir; d.stats; d.sock ]
  in
  Fun.protect ~finally:stop (fun () ->
      wait_health d ~deadline:(t0 + 10_000_000_000);
      acc.setup <- Proc.seconds_since t0 :: acc.setup;
      let r = f d in
      (match request d ~meth:"POST" ~path:"/drain" () with
      | Ok (202, _) -> ()
      | Ok (c, b) -> failwith (Printf.sprintf "drain answered %d %s" c b)
      | Error e -> failwith ("drain: " ^ e));
      if not (Proc.reap ~timeout:60. pid) then failwith "daemon did not exit after drain";
      match Ksa_prim.Durable.read_file ~path:d.stats with
      | Error e -> failwith e
      | Ok s -> ( match J.parse s with Error e -> failwith e | Ok j -> (r, j)))

let ms_since t0 = Proc.seconds_since t0 *. 1e3

(* The client asks after the [polled] oldest unfinished jobs every
   10 ms.  The daemon runs jobs one at a time in submission order, and
   only a probe waiting out its retry backoff can finish out of turn,
   so the job that finishes next is always among the first few; asking
   after all thirty queued jobs of a sweep would cost the daemon's
   event loop, which shares the machine with the job it runs, three
   thousand requests a second. *)
let poll_ns = 10_000_000
let polled = 4

(* One sweep against daemon [d]: post every job back to back, ask
   after unfinished ones (GET /jobs/ID: a full GET /jobs listing costs
   the daemon more with every job submitted), and time the sweep from
   its first POST to its last job seen Done.  Returns the sweep's
   latency and its jobs completed.

   The latency is reported as measured.  Two ways of rescaling it were
   tried and dropped: the reference kernel timed here before each
   sweep made the median less steady over ten seeds (spread 0.09
   against 0.06 as measured), and timed while the sweep runs it shares
   the two vCPUs with the daemon and read between 1 and 4 times its
   nominal time, by how busy the daemon was rather than by the
   machine's speed. *)
let drive acc ~trace ~sweep (jobs : Plan.job array) d =
  let n = Array.length jobs in
  let ids = Array.make n (-1) in
  let posted = Array.make n 0 and running = Array.make n 0 and done_ = Array.make n 0 in
  let result = Array.make n J.Null and attempts = Array.make n 0 in
  let settled = Array.make n false and problem = Array.make n [] in  let unsettled = ref n in
  let trace_id i = Printf.sprintf "sweep-%d-job-%d" sweep i in
  let span name i t0 t1 =
    if trace then
      acc.spans <-
        Spans.obj
          ~id:(J.Str (Printf.sprintf "p.%d" (Spans.fresh ())))
          ~parent:J.Null ~trace:(trace_id i) name t0 t1
        :: acc.spans
  in
  let settle i problems =
    if not settled.(i) then begin
      settled.(i) <- true;
      problem.(i) <- problems;
      decr unsettled
    end
  in
  let post i =
    let t0 = Proc.now_ns () in
    let body = J.to_string (J.Obj [ ("spec", jobs.(i).spec) ]) in
    (match request d ~meth:"POST" ~path:"/jobs" ~body () with
    | Ok (201, resp) -> (
        match J.parse resp with
        | Ok j -> ids.(i) <- Proc.int "id" j
        | Error e -> settle i [ "submit response: " ^ e ])
    | Ok (c, resp) -> settle i [ Printf.sprintf "submit answered %d %s" c resp ]
    | Error e -> settle i [ "submit: " ^ e ]);
    posted.(i) <- Proc.now_ns ();
    sample acc "http.post_ms" (ms_since t0);
    span "http.post" i t0 posted.(i)
  in
  let poll i =
    let t0 = Proc.now_ns () in
    (match request d ~meth:"GET" ~path:(Printf.sprintf "/jobs/%d" ids.(i)) () with
    | Ok (200, body) -> (
        let seen = Proc.now_ns () in
        match J.parse body with
        | Error _ -> ()
        | Ok job -> (
            match Proc.field "state" job with
            | J.Str "running" -> if running.(i) = 0 then running.(i) <- seen
            | J.Str "done" ->
                done_.(i) <- seen;
                result.(i) <- Proc.field "result" job;
                attempts.(i) <- Proc.int "attempts" job;
                settle i []
            | J.Str "dead" -> settle i [ "job dead: " ^ Proc.str "error" job ]
            | _ -> ()))
    | Ok _ | Error _ -> ());
    sample acc "http.get_ms" (ms_since t0);
    span "http.get" i t0 (Proc.now_ns ())
  in
  let start = Proc.now_ns () in
  let deadline = start + 120_000_000_000 in
  for i = 0 to n - 1 do
    post i
  done;
  while !unsettled > 0 && Proc.now_ns () < deadline do
    let asked = ref 0 in
    for i = 0 to n - 1 do
      if !asked < polled && not settled.(i) then begin
        incr asked;
        poll i
      end
    done;
    Unix.sleepf (float_of_int poll_ns /. 1e9)
  done;
  let completed = ref 0 and last_done = ref start in
  Array.iteri
    (fun i (job : Plan.job) ->
      let what = Printf.sprintf "sweep %d job %d (%s)" sweep i (J.to_string job.spec) in
      if done_.(i) > 0 then begin
        incr completed;
        last_done := max !last_done done_.(i);
        sample acc "svc.job_latency_s" (float_of_int (done_.(i) - start) /. 1e9);
        span "job" i start done_.(i);
        if running.(i) > 0 then begin
          sample acc "svc.queue_wait_s" (float_of_int (running.(i) - posted.(i)) /. 1e9);
          sample acc "svc.service_s" (float_of_int (done_.(i) - running.(i)) /. 1e9)
        end;
        add acc "svc.attempts" (float_of_int attempts.(i))
      end;
      op acc ~what
        (if not settled.(i) then [ "not done by the deadline" ]
         else if problem.(i) <> [] then problem.(i)
         else if not (List.mem (Proc.str "verdict" result.(i)) job.expect) then
           [
             Printf.sprintf "verdict %s, expected %s" (Proc.str "verdict" result.(i))
               (String.concat " or " job.expect);
           ]
         else []))
    jobs;
  let wall = float_of_int (!last_done - start) /. 1e9 in
  sample acc "svc.sweep_wall_s" wall;
  add acc "jobs" (float_of_int !completed);
  (wall, !completed)

(* Each sweep goes to a daemon of its own; set-up time and the
   daemon's peak memory are medians over the sweeps' daemons. *)
let serve_pass o acc ~trace ~pass =
  let rss = ref [] in
  List.iteri
    (fun sweep jobs ->
      let (latency, completed), j =
        with_daemon o acc ~index:((100 * pass) + sweep)
          (drive acc ~trace ~sweep (Array.of_list jobs))
      in
      absorb acc ~tag:(Printf.sprintf "d%d" sweep) j;
      rss := float_of_int (Proc.int "rss_kb" j) :: !rss;
      acc.ops <- latency :: acc.ops;
      acc.items <- acc.items +. float_of_int completed;
      acc.item_s <- acc.item_s +. latency;
      acc.words <- acc.words +. Proc.num "words" j;
      acc.word_items <- acc.word_items +. float_of_int completed;
      add acc "campaign_cpu_s" latency;
      add acc "timed_s" latency)
    (Plan.sweeps o.profile ~seed:o.seed ~seconds:o.seconds);
  acc.rss_kb <- int_of_float (Stats.median !rss)

(* ---------- runs ---------- *)

let pass o acc ~trace (w : Plan.workload) ~pass =
  match w with
  | Plan.Border_seq | Plan.Border_par2 -> border_pass o acc ~trace w ~pass
  | Plan.Explore_ckpt -> ckpt_pass o acc ~trace w ~pass
  | Plan.Fuzz_hunt -> fuzz_pass o acc ~trace w ~pass
  | Plan.Serve_sweep -> serve_pass o acc ~trace ~pass

(* [Plan.passes] whole passes.  The count follows [seconds], not the
   clock: on a slow machine a run takes longer but makes the same
   operations, so each median is over the same population (border-seq's
   cell median sat among the n=4 cells after two passes and between
   n=3 and n=4 cells after one). *)
let measure o w =
  let acc = fresh () in
  for p = 0 to Plan.passes w ~seconds:o.seconds - 1 do
    pass o acc ~trace:false w ~pass:p
  done;
  acc

(* A traced run: one untraced pass for the overhead baseline, one
   traced pass, then the layer replay in its own child. *)
let traced o w =
  let untraced = fresh () and acc = fresh () in
  pass o untraced ~trace:false w ~pass:0;
  pass o acc ~trace:true w ~pass:0;
  let overhead = (sum acc "timed_s" /. sum untraced "timed_s") -. 1. in
  let replay = child o (fresh ()) ~trace:false w "replay" [] in
  (match replay with Error e -> op acc ~what:"layer replay" [ e ] | Ok _ -> ());
  (acc, overhead, Result.value ~default:J.Null replay)
