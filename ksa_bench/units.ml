(* The child side: one unit of a workload, run in a fresh process.

   Each unit sets itself up, calls [ready], runs its campaign through
   the library's public drivers, and returns JSON fields describing
   what happened; [Main] adds the set-up time, peak RSS, spans and
   sample streams and prints the object as the last line of stdout.
   A fresh process per unit matters: the interners are process-global,
   so a campaign run after another one would start with a warm table. *)

module J = Ksa_svc.Json
module Sim = Ksa_sim
module Explorer = Ksa_sim.Explorer
module Checkpoint = Ksa_sim.Checkpoint
module Fuzz = Ksa_sim.Fuzz
module Metrics = Ksa_prim.Metrics

let ready_ns = ref 0
let ready_ref_s = ref Proc.reference_nominal_s

(* Set-up ends here; the reference kernel then runs on [domains]
   domains, the campaign's, before the campaign has built its heap.
   The campaign's durations are rescaled by this one reading: a second
   one after the campaign tracked the campaign a little better but
   ran beside the campaign's heap, so a change that grew the heap
   would have slowed the kernel and hidden part of its own cost. *)
let ready ?(domains = 1) () =
  ready_ns := Proc.now_ns ();
  ready_ref_s := Proc.reference_s ~domains ()

let k_check ~k decisions =
  let values = List.sort_uniq compare (List.map (fun (_, v, _) -> v) decisions) in
  if List.length values > k then
    Some (Printf.sprintf "%d distinct decisions exceed k=%d" (List.length values) k)
  else None

(* ---------- measuring one campaign ---------- *)

let snapshot_json snap =
  J.Obj (List.filter_map (fun (k, v) -> if v = 0 then None else Some (k, J.Int v)) snap)

(* Run [f] and describe its cost: wall time, allocation, GC counts,
   the Ksa_prim.Metrics deltas and the interner sizes at the end. *)
let measure f =
  (* [Gc.quick_stat] counts this domain's minor allocation only up to
     its last minor collection; force one on each side (outside the
     timed region) so short campaigns are not read as allocating
     nothing.  Joined worker domains have already flushed theirs. *)
  let stat () =
    Gc.minor ();
    Gc.quick_stat ()
  in
  let g0 = stat () in
  let m0 = Metrics.snapshot () in
  let t0 = Proc.now_ns () in
  let r = f () in
  let t1 = Proc.now_ns () in
  let g1 = stat () in
  let m1 = Metrics.snapshot () in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let size k = J.Int (Option.value ~default:0 (List.assoc_opt k m1)) in
  ( r,
    (t0, t1),
    [
      ("wall_s", J.Float (float_of_int (t1 - t0) /. 1e9));
      ("words", J.Float (words g1 -. words g0));
      ( "gc",
        J.Obj
          [
            ("minor_words", J.Float (g1.minor_words -. g0.minor_words));
            ("promoted_words", J.Float (g1.promoted_words -. g0.promoted_words));
            ("minor_collections", J.Int (g1.minor_collections - g0.minor_collections));
            ("major_collections", J.Int (g1.major_collections - g0.major_collections));
          ] );
      ("deltas", snapshot_json (Metrics.delta ~before:m0 ~after:m1));
      ( "sizes",
        J.Obj
          [
            ("intern.states.size", size "intern.states.size");
            ("intern.payloads.size", size "intern.payloads.size");
          ] );
    ] )

(* In traced runs, time the gaps between consecutive [check] calls —
   one explorer expansion each in the sequential drivers — and keep
   every 256th as a span. *)
let gap_check ~parent ~trace check =
  if not !Spans.on then check
  else begin
    let last = ref (Proc.now_ns ()) and count = ref 0 in
    fun decisions ->
      let t = Proc.now_ns () in
      Samples.push "expand_ns" (t - !last);
      if !count land 255 = 0 then Spans.add ~parent ~trace "explore.expand" !last t;
      incr count;
      last := t;
      check decisions
  end

(* ---------- border cells ---------- *)

let stats_fields (s : Explorer.stats) =
  [
    ("visited", J.Int s.configs_visited);
    ("terminals", J.Int s.terminal_runs);
    ("exhausted", J.Bool s.budget_exhausted);
  ]

let resilient_json (o : Explorer.resilient_outcome) =
  let v name fields = J.Obj (("verdict", J.Str name) :: fields) in
  match o with
  | Explorer.All_paths_decide s -> v "all-paths-decide" (stats_fields s)
  | Explorer.Stuck { stats; _ } -> v "stuck" (stats_fields stats)
  | Explorer.Indeterminate s -> v "indeterminate" (stats_fields s)
  | Explorer.Safety_violation _ -> v "violation" []

let cell ~profile ~workload ~seed ~pass ~index =
  let c = List.nth (Plan.cells profile ~seed ~pass) index in
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = Plan.cell_l c
  end) in
  let module Ex = Explorer.Make (K) in
  let par = workload = Plan.Border_par2 in
  let trace = Printf.sprintf "cell-%d-%d" pass index in
  let id = Spans.fresh () in
  (* crashed processes keep their in-flight messages, as in the CLI *)
  let go ~par check () =
    if par then
      Ex.explore_with_crashes_par ~domains:2 ~reduction:c.reduction ~policy:c.policy
        ~drop_on_crash:false ~n:c.n ~inputs:c.inputs ~crash_budget:c.t ~check ()
    else
      Ex.explore_with_crashes ~reduction:c.reduction ~policy:c.policy
        ~drop_on_crash:false ~n:c.n ~inputs:c.inputs ~crash_budget:c.t ~check ()
  in
  let check =
    if par then k_check ~k:c.k else gap_check ~parent:id ~trace (k_check ~k:c.k)
  in
  ready ~domains:(if par then 2 else 1) ();
  let outcome, (t0, t1), cost = measure (go ~par check) in
  Spans.record ~id ~trace "campaign" t0 t1;
  (* the parity oracle: the sequential driver on the same cell, after
     the timed run so it cannot warm the caches the timed run uses *)
  let parity =
    if par then [ ("seq", resilient_json (go ~par:false (k_check ~k:c.k) ())) ] else []
  in
  (("outcome", resilient_json outcome)
   :: ("reduced", J.Bool (c.reduction <> Sim.Canon.No_reduction))
   :: ("domains", J.Int (if par then 2 else 1))
   :: cost)
  @ parity

(* ---------- explore-ckpt ---------- *)

let ckpt_path ~work ~pass ~chain =
  Filename.concat work (Printf.sprintf "%s-%d.ckpt" (if chain then "chain" else "full") pass)

let ckpt_sink ~path (c : Plan.ckpt) =
  {
    Checkpoint.path;
    kind = "explore";
    fingerprint =
      Printf.sprintf "ksa_bench explore-ckpt n=%d l=%d k=%d max=%d inputs=%s" c.c_n
        c.c_l c.c_k c.max_configs (Plan.ints c.c_inputs);
    policy = { Checkpoint.every_items = c.every_items; every_seconds = infinity };
  }

let safe_json (o : Explorer.outcome) =
  match o with
  | Explorer.Safe s -> J.Obj (("verdict", J.Str "safe") :: stats_fields s)
  | Explorer.Violation _ -> J.Obj [ ("verdict", J.Str "violation") ]

(* One process of explore-ckpt.  With [full], the uninterrupted
   checkpointed campaign.  Otherwise [index] 0 runs the campaign from
   scratch and is interrupted half way, leaving its final checkpoint,
   and every later [index] restarts from that checkpoint and runs to
   the end.  A restart reports [restart_s], from the start of
   [Checkpoint.load] to the verdict, and its parts: [load_s],
   [restore_s] and [first_item_s] (explore called until its first
   check). *)
let ckpt ~profile ~work ~seed ~pass ~index ~full =
  let c = Plan.ckpt profile ~seed ~pass in
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = c.c_l
  end) in
  let module Ex = Explorer.Make (K) in
  let path = ckpt_path ~work ~pass ~chain:(not full) in
  let trace = Printf.sprintf "ckpt-%d-%s" pass (if full then "full" else string_of_int index) in
  let id = Spans.fresh () in
  let checks = ref 0 and first = ref 0 in
  let interrupt, sink =
    if full then (None, Some (ckpt_sink ~path c))
    else if index = 0 then
      (Some (fun () -> !checks >= c.max_configs / 2), Some (ckpt_sink ~path c))
    else (None, None)
  in
  ready ();
  let resume, timings =
    if full || index = 0 then (None, [])
    else begin
      let ta = Proc.now_ns () in
      let t =
        match Checkpoint.load ~path with Ok t -> t | Error e -> failwith e
      in
      let tb = Proc.now_ns () in
      (match Checkpoint.restore_interners t with Ok () -> () | Error e -> failwith e);
      let tc = Proc.now_ns () in
      Spans.add ~parent:id ~trace "checkpoint.load" ta tb;
      Spans.add ~parent:id ~trace "checkpoint.restore" tb tc;
      (Some (Checkpoint.payload t), [ ta; tb; tc ])
    end
  in
  let inner = gap_check ~parent:id ~trace (k_check ~k:c.c_k) in
  let check d =
    if !first = 0 then first := Proc.now_ns ();
    incr checks;
    inner d
  in
  let ctl = Checkpoint.ctl ?sink ?interrupt () in
  let outcome, (t0, t1), cost =
    measure (fun () ->
        Ex.explore ~max_configs:c.max_configs ~policy:Explorer.Per_sender ~ckpt:ctl
          ?resume ~n:c.c_n ~inputs:c.c_inputs
          ~pattern:(Sim.Failure_pattern.none ~n:c.c_n)
          ~check ())
  in
  Spans.record ~id ~trace "campaign" t0 t1;
  let restart_fields =
    match timings with
    | [ ta; tb; tc ] ->
        Spans.add ~parent:id ~trace "resume.first_item" t0 !first;
        let s ns = J.Float (float_of_int ns /. 1e9) in
        [
          ("load_s", s (tb - ta));
          ("restore_s", s (tc - tb));
          ("first_item_s", s (!first - t0));
          ("restart_s", s (tc - ta + (t1 - t0)));
        ]
    | _ -> []
  in
  (("outcome", safe_json outcome) :: restart_fields) @ cost

(* ---------- fuzz-hunt ---------- *)

(* One coverage-guided hunt for a violation, shrinking included: the
   hunt's seeds in turn, each for up to the cap, until one finds it. *)
let hunt ~profile ~seed ~pass ~index =
  let f = Plan.fuzz profile ~seed ~pass in
  let h = List.nth f.hunts index in
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = f.h_l
  end) in
  let module F = Fuzz.Make (K) in
  let cfg =
    { (Fuzz.default_config ~k:f.h_k ~n:f.h_n ()) with inputs = h.h_inputs; coverage = true }
  in
  let rec attempt ~spent ~made = function
    | [] -> (None, spent, made)
    | s :: rest -> (
        match F.run cfg ~seed:s ~trials:f.h_cap with
        | Fuzz.Violation_found v -> (Some v, spent + v.trial + 1, made + 1)
        | Fuzz.Clean { trials } | Fuzz.Budget_exhausted { trials } ->
            attempt ~spent:(spent + trials) ~made:(made + 1) rest)
  in
  ready ();
  let (outcome, trials, attempts), (t0, t1), cost =
    measure (fun () -> attempt ~spent:0 ~made:0 h.h_seeds)
  in
  Spans.add ~trace:(Printf.sprintf "hunt-%d-%d" pass index) "fuzz.hunt" t0 t1;
  let found =
    match outcome with
    | Some (v : Fuzz.violation) ->
        let replayed = F.replay_schedule ~pattern:v.pattern cfg v.shrunk in
        [
          ("found", J.Bool true);
          ("recorded_violates", J.Bool (F.check_run cfg v.run <> None));
          ("shrunk", J.Bool (v.shrunk <> v.schedule));
          ("replays", J.Bool (F.check_run cfg replayed <> None));
          ("shrunk_len", J.Int (List.length v.shrunk));
        ]
    | None -> [ ("found", J.Bool false) ]
  in
  (("trials", J.Int trials) :: ("attempts", J.Int attempts) :: found) @ cost

let fuzz_verdict = function
  | Fuzz.Clean { trials } -> [ ("verdict", J.Str "clean"); ("trials", J.Int trials) ]
  | Fuzz.Violation_found v ->
      [ ("verdict", J.Str "violation"); ("trials", J.Int (v.trial + 1)) ]
  | Fuzz.Budget_exhausted { trials } ->
      [ ("verdict", J.Str "budget-exhausted"); ("trials", J.Int trials) ]

(* Part [index] of a campaign at k=2, clean by Theorem 8: with
   [coverage], the sequential coverage-guided driver, each trial timed
   from one [on_trial] call to the next; otherwise the blind parallel
   driver on two domains with up to [clean_crashes] crashes per
   trial. *)
let clean ~profile ~seed ~pass ~index ~coverage =
  let f = Plan.fuzz profile ~seed ~pass in
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = f.clean_l
  end) in
  let module F = Fuzz.Make (K) in
  let base = Fuzz.default_config ~k:f.clean_k ~n:f.clean_n () in
  let trace =
    Printf.sprintf "%s-%d-%d" (if coverage then "coverage" else "clean") pass index
  in
  let part = List.nth (if coverage then f.cov else f.clean) index in
  let id = Spans.fresh () in
  let run =
    if coverage then begin
      let last = ref 0 and count = ref 0 in
      let on_trial _ _ =
        let t = Proc.now_ns () in
        Samples.push "trial_ns" (t - !last);
        if !count land 63 = 0 then Spans.add ~parent:id ~trace "fuzz.trial" !last t;
        incr count;
        last := t
      in
      let cfg = { base with inputs = part.p_inputs; coverage = true } in
      fun () ->
        last := Proc.now_ns ();
        F.run ~on_trial cfg ~seed:part.p_seed ~trials:f.cov_trials
    end
    else
      let cfg = { base with inputs = part.p_inputs; max_crashes = f.clean_crashes } in
      fun () -> F.run_par ~domains:2 cfg ~seed:part.p_seed ~trials:f.clean_trials
  in
  ready ~domains:(if coverage then 1 else 2) ();
  let outcome, (t0, t1), cost = measure run in
  Spans.record ~id ~trace "fuzz.campaign" t0 t1;
  fuzz_verdict outcome @ cost

(* ---------- serve-sweep: the daemon process ---------- *)

(* Serve until drained, then leave this process's cost where the
   parent will read it.  A failed attempt retries after exactly 0.2 s
   (no jitter), so the retry path's latency is set by the daemon, not
   by the seed's jitter draws. *)
let serve ~dir ~addr ~seed ~stats =
  let cfg =
    {
      (Ksa_svc.Daemon.default_cfg ~dir) with
      addr = Some addr;
      retry = { Ksa_prim.Backoff.base = 0.2; cap = 0.4; multiplier = 2.0; jitter = 0.0 };
      seed;
    }
  in
  let code, _, cost = measure (fun () -> Ksa_svc.Daemon.serve cfg) in
  let body =
    J.Obj (("code", J.Int code) :: ("rss_kb", J.Int (Proc.peak_rss_kb ())) :: cost)
  in
  (match Ksa_prim.Durable.write_atomic ~path:stats (J.to_string body) with
  | Ok () -> ()
  | Error e -> prerr_endline ("ksa_bench: " ^ e));
  code
