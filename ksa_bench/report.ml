(* Metric definitions, the printed report, the JSON result line, and
   [compare]. *)

module J = Ksa_svc.Json
module W = Workloads

let finite v = if Float.is_finite v then v else 0.
let ratio a b = if b > 0. then a /. b else 0.

let pct q xs = if xs = [] then 0. else Stats.percentile q xs

(* ---------- end to end ---------- *)

(* One set of names for every workload; what an item and an
   operation are depends on the workload (see README.md): items are
   admitted configurations (border-*, explore-ckpt), trials of the
   clean parallel campaign (fuzz-hunt) or completed jobs
   (serve-sweep); operations are full-enumeration cell campaigns,
   restarts of a killed campaign to its verdict, coverage-guided
   trials, or sweeps of jobs from due to their last Done.  Only the
   median is gated: border-*, explore-ckpt and serve-sweep have too few
   operations per run for any higher percentile to have ten samples
   beyond it. *)
let end_to_end (acc : W.acc) =
  [
    ("setup_s", "s", pct 0.5 acc.setup);
    ("items_per_s", "1/s", ratio acc.items acc.item_s);
    ("op_latency_s_p50", "s", pct 0.5 acc.ops);
    ("words_per_item", "words", ratio acc.words acc.word_items);
    ("peak_rss_mb", "MiB", float_of_int acc.rss_kb /. 1024.);
  ]

(* ---------- per layer ---------- *)

let per_layer (acc : W.acc) ~overhead replay =
  let s = W.sum acc in
  let m k = s ("m:" ^ k) in
  let r k = Proc.num k replay in
  let q p k scale = pct p (W.samples acc k) *. scale in
  let admitted = m "explore.admitted" and dedup = m "explore.dedup.hits" in
  let gc_items =
    if s "jobs" > 0. then s "jobs" else admitted +. m "fuzz.trials"
  in
  let writes = m "campaign.checkpoints.written" in
  (* Attribution: a count from the Metrics deltas times the replayed
     ns/op, over campaign time times the domains working, both at
     nominal machine speed.  It is approximate by construction: the
     replayed corpus comes from the first campaign only, and one memo
     miss stands for one intern. *)
  let cpu = s "campaign_cpu_s" in
  let share ns = ratio (ns /. 1e9) cpu in
  let per_op k = ratio (r k) (r "scale") in
  let attrib =
    [
      ("attrib.engine.share", share (m "sim.steps" *. per_op "engine.apply.ns"));
      ( "attrib.key.share",
        share
          ((s "keys.raw" *. per_op "engine.key.ns")
          +. (s "keys.sym" *. per_op "canon.key_sym.ns")) );
      ("attrib.intern.share", share (m "sim.memo.misses" *. per_op "intern.miss.ns"));
      ( "attrib.shardset.share",
        share
          ((s "par.admitted" *. per_op "shardset.admit_new.ns")
          +. (s "par.dedup" *. per_op "shardset.admit_found.ns")) );
      ("attrib.checkpoint.share", share (m "campaign.checkpoint.write.ns"));
    ]
  in
  let attributed = List.fold_left (fun a (_, v) -> a +. v) 0. attrib in
  [
    ("engine.apply.ns", "ns", r "engine.apply.ns");
    ("engine.apply.words", "words", r "engine.apply.words");
    ("engine.key.ns", "ns", r "engine.key.ns");
    ("engine.key.words", "words", r "engine.key.words");
    ("engine.steps", "count", m "sim.steps");
    ("engine.memo.hit_ratio", "ratio", ratio (m "sim.memo.hits") (m "sim.memo.hits" +. m "sim.memo.misses"));
    ("canon.key_sym.ns", "ns", r "canon.key_sym.ns");
    ("canon.key_sym.words", "words", r "canon.key_sym.words");
    ("canon.orbit_hit_ratio", "ratio", ratio (m "explore.orbit_hits") (m "explore.orbit_hits" +. admitted));
    ("intern.hit.ns", "ns", r "intern.hit.ns");
    ("intern.hit.ns.d2", "ns", r "intern.hit.ns.d2");
    ("intern.miss.ns", "ns", r "intern.miss.ns");
    ("intern.states.size", "count", s "max:intern.states.size");
    ("intern.payloads.size", "count", s "max:intern.payloads.size");
    ("shardset.admit_new.ns", "ns", r "shardset.admit_new.ns");
    ("shardset.admit_found.ns", "ns", r "shardset.admit_found.ns");
    ("shardset.admit_found.ns.d2", "ns", r "shardset.admit_found.ns.d2");
    ("shardset.collisions_per_key", "ratio", ratio (m "shardset.explore.dedup.collisions") (s "par.admitted"));
    ("shardset.resizes", "count", m "shardset.explore.dedup.resizes");
    ("explore.admitted", "count", admitted);
    ("explore.dedup_ratio", "ratio", ratio dedup (dedup +. admitted));
    ("explore.expand.us_p50", "us", q 0.5 "expand_ns" 1e-3);
    ("explore.expand.us_p99", "us", q 0.99 "expand_ns" 1e-3);
    ("explore.worker.busy_frac", "ratio", ratio (m "explore.worker.ns" /. 1e9) (s "par_campaign_cpu_s"));
    ("explore.steals", "count", m "explore.steals");
    ("explore.spills", "count", m "explore.spills");
    ("explore.truncated", "count", s "truncated");
    ("checkpoint.writes", "count", writes);
    ("checkpoint.write.ms", "ms", ratio (m "campaign.checkpoint.write.ns" /. 1e6) (m "campaign.checkpoint.write.calls"));
    ("checkpoint.bytes_per_write", "bytes", ratio (m "campaign.checkpoint.bytes") writes);
    ("checkpoint.load.ms", "ms", q 0.5 "checkpoint.load_s" 1e3);
    ("checkpoint.restore.ms", "ms", q 0.5 "checkpoint.restore_s" 1e3);
    ("resume.first_item.ms", "ms", q 0.5 "resume.first_item_s" 1e3);
    ("resume.ms", "ms", q 0.5 "resume_s" 1e3);
    ("durable.write_atomic.ms_per_mb", "ms/MB", r "durable.write_atomic.ms_per_mb");
    ("fuzz.trial.us_p50", "us", q 0.5 "trial_ns" 1e-3);
    ("fuzz.trial.us_p99", "us", q 0.99 "trial_ns" 1e-3);
    ("fuzz.ttv_s_p50", "s", q 0.5 "ttv_s" 1.);
    ("fuzz.trials_to_violation_p50", "count", q 0.5 "ttv_trials" 1.);
    ("fuzz.steps_per_trial", "count", if s "jobs" > 0. then 0. else ratio (m "sim.steps") (m "fuzz.trials"));
    ("fuzz.shrink.ms", "ms", ratio (m "fuzz.shrink.ns" /. 1e6) (s "hunts"));
    ("fuzz.hunt.restarts", "count", s "hunt.restarts");
    ("fuzz.cov.admit_ratio", "ratio", ratio (m "fuzz.cov.admitted") (m "fuzz.trials"));
    ( "fuzz.unreplayable_frac",
      "ratio",
      let u = W.samples acc "unreplayable" in
      ratio (List.fold_left ( +. ) 0. u) (float_of_int (List.length u)) );
    ("http.post.ms_p50", "ms", q 0.5 "http.post_ms" 1.);
    ("http.post.ms_p90", "ms", q 0.9 "http.post_ms" 1.);
    ("http.get.ms_p50", "ms", q 0.5 "http.get_ms" 1.);
    ("svc.queue_wait_s_p50", "s", q 0.5 "svc.queue_wait_s" 1.);
    ("svc.service_s_p50", "s", q 0.5 "svc.service_s" 1.);
    ("svc.attempts_per_job", "count", ratio (s "svc.attempts") (s "jobs"));
    ("svc.job_latency_s_p50", "s", q 0.5 "svc.job_latency_s" 1.);
    ("svc.job_latency_s_p90", "s", q 0.9 "svc.job_latency_s" 1.);
    ("svc.sweep_wall_s_p50", "s", q 0.5 "svc.sweep_wall_s" 1.);
    ("jobstore.submit.ms", "ms", r "jobstore.submit.ms");
    ("jobstore.update.ms", "ms", r "jobstore.update.ms");
    ("gc.minor_words_per_item", "words", ratio (s "gc.minor_words") gc_items);
    ("gc.promoted_words_per_item", "words", ratio (s "gc.promoted_words") gc_items);
    ("gc.minor_collections", "count", s "gc.minor_collections");
    ("gc.major_collections", "count", s "gc.major_collections");
    ("trace.overhead_frac", "ratio", overhead);
  ]
  @ List.map (fun (k, v) -> (k, "ratio", v)) attrib
  @ [ ("attrib.unattributed.share", "ratio", 1. -. attributed) ]

(* ---------- output ---------- *)

let metrics_json metrics =
  J.Obj
    (List.map
       (fun (k, u, v) -> (k, J.Obj [ ("value", J.Float (finite v)); ("unit", J.Str u) ]))
       metrics)

let result_json (acc : W.acc) metrics =
  J.Obj
    [
      ("correct", J.Bool (acc.failed = 0));
      ("attempted", J.Int acc.attempted);
      ("failed", J.Int acc.failed);
      ("metrics", metrics_json metrics);
    ]

let print_metrics metrics =
  List.iter (fun (k, u, v) -> Printf.printf "  %-32s %14.6g %s\n" k v u) metrics

let print_run ~title (acc : W.acc) metrics =
  Printf.printf "== %s ==\n" title;
  print_metrics metrics;
  let n = List.length acc.ops in
  Printf.printf
    "  (%d set-ups; %d operations, highest percentile with ten samples beyond it: p%g)\n"
    (List.length acc.setup) n
    (100. *. Stats.supported_percentile n);
  Printf.printf "  attempted %d, failed %d, failed_frac %.4f\n" acc.attempted acc.failed
    (ratio (float_of_int acc.failed) (float_of_int acc.attempted));
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) (List.rev acc.failures)

(* ---------- compare ---------- *)

type bound = { b_name : string; lower_better : bool; bound : float }

let read_json path =
  match Ksa_prim.Durable.read_file ~path with
  | Error e -> failwith e
  | Ok s -> ( match J.parse s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e))

let bounds_of benchmark =
  List.map
    (fun m ->
      {
        b_name = Proc.str "name" m;
        lower_better = Proc.str "better" m = "lower";
        bound = Proc.num "bound" m;
      })
    (Option.value ~default:[] (J.get_list (Proc.field "end_to_end" benchmark)))

let runs_of results w =
  List.filter
    (fun r -> Proc.str "workload" r = w && Proc.field "trace" r <> J.Bool true)
    (Option.value ~default:[] (J.get_list (Proc.field "runs" results)))

let value_of name run = Proc.num "value" (Proc.field name (Proc.field "metrics" run))

let min_pairs = 10

(* The comparison rule for one (workload, metric) pair, over runs
   paired in order.  A gain needs at least [min_pairs] pairs, the
   change winning nine tenths of them (ties count for neither), and
   the medians differing by more than the parent's quartile distance.
   A worse median where that distance is wider than the bound is
   "unresolved", never "within bound" (the rule's exception, every
   change run beating every parent run, cannot hold when the change's
   median is worse). *)
let verdict b ~parent ~change =
  let better x y = if b.lower_better then x < y else x > y in
  let rec pairs ps cs =
    match (ps, cs) with p :: ps, c :: cs -> (p, c) :: pairs ps cs | _ -> []
  in
  let pairs = pairs parent change in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let share = ratio (float_of_int wins) (float_of_int (List.length pairs)) in
  let pmed = Stats.median parent and cmed = Stats.median change in
  let pq1, _, pq3 = Stats.quartiles parent in
  let spread = pq3 -. pq1 in
  let worse = (if b.lower_better then cmed -. pmed else pmed -. cmed) /. pmed in
  let v =
    if
      List.length pairs >= min_pairs
      && share >= 0.9 && worse < 0.
      && Float.abs (cmed -. pmed) > spread
    then "improved"
    else if worse > 0. && spread /. pmed > b.bound then "unresolved"
    else if worse > b.bound then "regressed"
    else "within bound"
  in
  (v, share)

let compare ~benchmark ~parent ~change =
  let bounds = bounds_of (read_json benchmark) in
  let p = read_json parent and c = read_json change in
  let names results =
    List.sort_uniq compare
      (List.map (Proc.str "workload")
         (Option.value ~default:[] (J.get_list (Proc.field "runs" results))))
  in
  let bad = ref false in
  let side xs =
    let q1, _, q3 = Stats.quartiles xs in
    Printf.sprintf "%11.5g [%.5g, %.5g]" (Stats.median xs) q1 q3
  in
  Printf.printf "%-13s %-17s %-36s %-36s %5s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "won" "verdict";
  List.iter
    (fun w ->
      let pr = runs_of p w and cr = runs_of c w in
      let pairs = min (List.length pr) (List.length cr) in
      if pairs < min_pairs then
        Printf.printf "%-13s only %d pairs (fewer than %d): no gain can be claimed\n" w pairs
          min_pairs;
      List.iter
        (fun b ->
          let parent = List.map (value_of b.b_name) pr
          and change = List.map (value_of b.b_name) cr in
          if parent <> [] && change <> [] then begin
            let v, share = verdict b ~parent ~change in
            if v = "regressed" then bad := true;
            Printf.printf "%-13s %-17s %-36s %-36s %4.0f%%  %s\n" w b.b_name (side parent)
              (side change) (100. *. share) v
          end)
        bounds;
      let frac runs =
        let sum k = List.fold_left (fun a r -> a + Proc.int k r) 0 runs in
        ratio (float_of_int (sum "failed")) (float_of_int (sum "attempted"))
      in
      let fp = frac pr and fc = frac cr in
      if fc > fp then begin
        bad := true;
        Printf.printf "%-13s failed_frac ROSE: %.4f -> %.4f\n" w fp fc
      end)
    (List.sort_uniq compare (names p @ names c));
  if !bad then 1 else 0
