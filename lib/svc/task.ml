(* Campaign drivers as resumable tasks.  See task.mli. *)

module Sim = Ksa_sim
module Algo = Ksa_algo
module Checkpoint = Ksa_sim.Checkpoint

let ( let* ) = Result.bind

type explore_spec = {
  e_algo : string;
  e_n : int;
  e_k : int;
  e_l : int option;
  e_wait : int;
  e_dead : int list;
  e_crash_budget : int;
  e_model : Sim.Fault_model.t;
  e_policy : string;
  e_reduction : Sim.Canon.reduction;
  e_max_configs : int option;
  e_drop : bool;
}

type fuzz_spec = {
  f_algo : string;
  f_n : int;
  f_k : int;
  f_l : int option;
  f_wait : int;
  f_dead : int list;
  f_seed : int;
  f_trials : int;
  f_max_steps : int;
  f_max_crashes : int;
  f_weights : string;
  f_termination : bool;
  f_coverage : bool;
  f_model : Sim.Fault_model.t;
}

type probe_spec = { p_fail : int; p_spin : float }

type spec =
  | Explore of explore_spec
  | Fuzz of fuzz_spec
  | Probe of probe_spec

(* ---------- shared pieces lifted from the CLI ---------- *)

let resolve_l ~n = function Some l -> l | None -> max 1 (n - 1)

let algo_conv ~l ~wait_for = function
  | "kset-flp" ->
      let module K = Algo.Kset_flp.Make (struct
        let l = l
      end) in
      Ok (module K : Sim.Algorithm.S)
  | "naive-min" ->
      let module N = Algo.Naive_min.Make (struct
        let wait_for = wait_for
      end) in
      Ok (module N : Sim.Algorithm.S)
  | "trivial" -> Ok (module Algo.Trivial.A : Sim.Algorithm.S)
  | "synod" -> Ok (module Algo.Synod.A : Sim.Algorithm.S)
  | other -> Error (Printf.sprintf "unknown algorithm %S" other)

(* Fuzz trials run with no failure-detector history to query *)
let fuzzable (module A : Sim.Algorithm.S) =
  if A.uses_fd then
    Error
      (Printf.sprintf
         "cannot fuzz %s: it queries a failure detector, and fuzz trials \
          supply none"
         A.name)
  else Ok (module A : Sim.Algorithm.S)

let policy_conv = function
  | "per-sender" -> Ok Sim.Explorer.Per_sender
  | "empty-or-all" -> Ok Sim.Explorer.Empty_or_all
  | "all-subsets" -> Ok Sim.Explorer.All_subsets
  | p ->
      Error
        (Printf.sprintf
           "unknown policy %S (expected per-sender, empty-or-all, or \
            all-subsets)"
           p)

let weights_conv = function
  | "fair" -> Ok Sim.Fuzz.fair_weights
  | "mixed" -> Ok Sim.Fuzz.default_weights
  | w -> Error (Printf.sprintf "unknown weights %S (expected fair or mixed)" w)

let explore_crashless e =
  e.e_crash_budget = 0 && e.e_model = Sim.Fault_model.Crash

let kind = function
  | Explore e -> if explore_crashless e then "explore" else "explore-crash"
  | Fuzz _ -> "fuzz"
  | Probe _ -> "probe"

(* Fingerprint formats are load-bearing: they must stay byte-identical
   to the strings the CLI has always written, or every existing
   checkpoint stops resuming. *)

let model_suffix = function
  | Sim.Fault_model.Crash -> ""
  | m -> " model=" ^ Sim.Fault_model.to_string m

let fingerprint = function
  | Explore e ->
      let l = resolve_l ~n:e.e_n e.e_l in
      Printf.sprintf
        "algo=%s n=%d k=%d l=%d wait=%d dead=%s crash-budget=%d policy=%s \
         max-configs=%s drop=%b reduction=%s"
        e.e_algo e.e_n e.e_k l e.e_wait
        (String.concat "," (List.map string_of_int e.e_dead))
        e.e_crash_budget e.e_policy
        (match e.e_max_configs with None -> "-" | Some m -> string_of_int m)
        e.e_drop
        (Sim.Canon.reduction_to_string e.e_reduction)
      ^ model_suffix e.e_model
  | Fuzz f ->
      let l = resolve_l ~n:f.f_n f.f_l in
      Printf.sprintf
        "algo=%s n=%d k=%d l=%d wait=%d dead=%s seed=%d trials=%d \
         max-steps=%d max-crashes=%d weights=%s termination=%b coverage=%b"
        f.f_algo f.f_n f.f_k l f.f_wait
        (String.concat "," (List.map string_of_int f.f_dead))
        f.f_seed f.f_trials f.f_max_steps f.f_max_crashes f.f_weights
        f.f_termination f.f_coverage
      ^ model_suffix f.f_model
  | Probe p -> Printf.sprintf "probe fail=%d spin=%g" p.p_fail p.p_spin

(* ---------- JSON codec ---------- *)

let spec_to_json spec =
  let ints l = Json.List (List.map (fun i -> Json.Int i) l) in
  match spec with
  | Explore e ->
      Json.Obj
        ([
           ("task", Json.Str "explore");
           ("algo", Json.Str e.e_algo);
           ("n", Json.Int e.e_n);
           ("k", Json.Int e.e_k);
         ]
        @ (match e.e_l with None -> [] | Some l -> [ ("l", Json.Int l) ])
        @ [
            ("wait", Json.Int e.e_wait);
            ("dead", ints e.e_dead);
            ("crash-budget", Json.Int e.e_crash_budget);
            ("model", Json.Str (Sim.Fault_model.to_string e.e_model));
            ("policy", Json.Str e.e_policy);
            ( "reduction",
              Json.Str (Sim.Canon.reduction_to_string e.e_reduction) );
          ]
        @ (match e.e_max_configs with
          | None -> []
          | Some m -> [ ("max-configs", Json.Int m) ])
        @ [ ("drop-on-crash", Json.Bool e.e_drop) ])
  | Fuzz f ->
      Json.Obj
        ([
           ("task", Json.Str "fuzz");
           ("algo", Json.Str f.f_algo);
           ("n", Json.Int f.f_n);
           ("k", Json.Int f.f_k);
         ]
        @ (match f.f_l with None -> [] | Some l -> [ ("l", Json.Int l) ])
        @ [
            ("wait", Json.Int f.f_wait);
            ("dead", ints f.f_dead);
            ("seed", Json.Int f.f_seed);
            ("trials", Json.Int f.f_trials);
            ("max-steps", Json.Int f.f_max_steps);
            ("max-crashes", Json.Int f.f_max_crashes);
            ("weights", Json.Str f.f_weights);
            ("termination", Json.Bool f.f_termination);
            ("coverage", Json.Bool f.f_coverage);
            ("model", Json.Str (Sim.Fault_model.to_string f.f_model));
          ])
  | Probe p ->
      Json.Obj
        [
          ("task", Json.Str "probe");
          ("fail", Json.Int p.p_fail);
          ("spin", Json.Float p.p_spin);
        ]

let spec_of_json j =
  let str ?default k =
    match Option.map Json.get_string (Json.mem k j) with
    | Some (Some s) -> Ok s
    | Some None -> Error (Printf.sprintf "field %S must be a string" k)
    | None -> (
        match default with
        | Some d -> Ok d
        | None -> Error (Printf.sprintf "missing field %S" k))
  in
  let int ?default k =
    match Option.map Json.get_int (Json.mem k j) with
    | Some (Some i) -> Ok i
    | Some None -> Error (Printf.sprintf "field %S must be an integer" k)
    | None -> (
        match default with
        | Some d -> Ok d
        | None -> Error (Printf.sprintf "missing field %S" k))
  in
  let int_opt k =
    match Option.map Json.get_int (Json.mem k j) with
    | Some (Some i) -> Ok (Some i)
    | Some None -> Error (Printf.sprintf "field %S must be an integer" k)
    | None -> Ok None
  in
  let flt ~default k =
    match Option.map Json.get_float (Json.mem k j) with
    | Some (Some f) -> Ok f
    | Some None -> Error (Printf.sprintf "field %S must be a number" k)
    | None -> Ok default
  in
  let boolean ~default k =
    match Option.map Json.get_bool (Json.mem k j) with
    | Some (Some b) -> Ok b
    | Some None -> Error (Printf.sprintf "field %S must be a boolean" k)
    | None -> Ok default
  in
  let dead () =
    match Json.mem "dead" j with
    | None -> Ok []
    | Some v -> (
        match Json.get_list v with
        | None -> Error "field \"dead\" must be a list of integers"
        | Some l ->
            List.fold_right
              (fun x acc ->
                let* acc = acc in
                match Json.get_int x with
                | Some i -> Ok (i :: acc)
                | None -> Error "field \"dead\" must be a list of integers")
              l (Ok []))
  in
  let model () =
    let* s = str ~default:"crash" "model" in
    Sim.Fault_model.of_string s
  in
  let algo ?(runs = Result.ok) () =
    let* a = str ~default:"kset-flp" "algo" in
    (* validate eagerly with harmless parameters; the name, and
       whether the task can run the algorithm, is what is checked *)
    let* _ = Result.bind (algo_conv ~l:1 ~wait_for:1 a) runs in
    Ok a
  in
  let* task = str "task" in
  match task with
  | "explore" ->
      let* e_algo = algo () in
      let* e_n = int ~default:6 "n" in
      let* e_k = int ~default:2 "k" in
      let* e_l = int_opt "l" in
      let* e_wait = int ~default:2 "wait" in
      let* e_dead = dead () in
      let* e_crash_budget = int ~default:0 "crash-budget" in
      let* e_model = model () in
      let* e_policy = str ~default:"per-sender" "policy" in
      let* _ = policy_conv e_policy in
      let* red = str ~default:"none" "reduction" in
      let* e_reduction = Sim.Canon.reduction_of_string red in
      let* e_max_configs = int_opt "max-configs" in
      let* e_drop = boolean ~default:false "drop-on-crash" in
      Ok
        (Explore
           {
             e_algo;
             e_n;
             e_k;
             e_l;
             e_wait;
             e_dead;
             e_crash_budget;
             e_model;
             e_policy;
             e_reduction;
             e_max_configs;
             e_drop;
           })
  | "fuzz" ->
      let* f_algo = algo ~runs:fuzzable () in
      let* f_n = int ~default:6 "n" in
      let* f_k = int ~default:2 "k" in
      let* f_l = int_opt "l" in
      let* f_wait = int ~default:2 "wait" in
      let* f_dead = dead () in
      let* f_seed = int ~default:1 "seed" in
      let* f_trials = int ~default:1000 "trials" in
      let* f_max_steps = int ~default:200 "max-steps" in
      let* f_max_crashes = int ~default:0 "max-crashes" in
      let* f_weights = str ~default:"mixed" "weights" in
      let* _ = weights_conv f_weights in
      let* f_termination = boolean ~default:false "termination" in
      let* f_coverage = boolean ~default:false "coverage" in
      let* f_model = model () in
      Ok
        (Fuzz
           {
             f_algo;
             f_n;
             f_k;
             f_l;
             f_wait;
             f_dead;
             f_seed;
             f_trials;
             f_max_steps;
             f_max_crashes;
             f_weights;
             f_termination;
             f_coverage;
             f_model;
           })
  | "probe" ->
      let* p_fail = int ~default:0 "fail" in
      let* p_spin = flt ~default:0. "spin" in
      Ok (Probe { p_fail; p_spin })
  | other -> Error (Printf.sprintf "unknown task %S" other)

(* ---------- resume validation ---------- *)

let load_resume ~path ~kind ~fingerprint =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match Checkpoint.load ~path with
  | Error e -> fail "cannot resume: %s" e
  | Ok t ->
      if Checkpoint.kind t <> kind then
        fail "%s is a %S checkpoint, not %S" path (Checkpoint.kind t) kind
      else if Checkpoint.fingerprint t <> fingerprint then
        fail "%s was written under different campaign parameters" path
      else (
        match Checkpoint.restore_interners t with
        | Error e -> fail "cannot resume: %s" e
        | Ok () -> Ok t)

(* ---------- execution ---------- *)

type outcome =
  | Explored of Sim.Explorer.outcome
  | Crash_explored of Sim.Explorer.resilient_outcome
  | Fuzzed of Sim.Fuzz.outcome
  | Replayed of { violation : (Sim.Fuzz.property * string) option; steps : int }
  | Probed of { attempt : int }

let k_check ~k decisions =
  let distinct =
    List.sort_uniq Sim.Value.compare
      (List.map (fun (_, v, _) -> v) decisions)
  in
  if List.length distinct > k then
    Some
      (Printf.sprintf "%d distinct decisions exceed k=%d"
         (List.length distinct) k)
  else None

let run_probe ~attempt ~ckpt ~stop p =
  if attempt < p.p_fail then
    failwith
      (Printf.sprintf "probe: injected failure (attempt %d of %d)" attempt
         p.p_fail);
  let deadline = p.p_spin in
  let slept = ref 0. in
  while
    !slept < deadline
    && (not (Checkpoint.interrupted ckpt))
    && not (stop ())
  do
    let slice = Float.min 0.01 (deadline -. !slept) in
    Unix.sleepf slice;
    slept := !slept +. slice
  done;
  Probed { attempt }

(* A fuzz campaign's algorithm and config, made in this one place:
   [run] and [replay] share it, so a replayed schedule runs under
   exactly the config of the campaign that recorded it. *)
let fuzz_setup ~stop f =
  let n = f.f_n in
  let* algo =
    Result.bind
      (algo_conv ~l:(resolve_l ~n f.f_l) ~wait_for:f.f_wait f.f_algo)
      fuzzable
  in
  let* weights = weights_conv f.f_weights in
  Ok
    ( algo,
      {
        (Sim.Fuzz.default_config ~k:f.f_k ~n ()) with
        Sim.Fuzz.pattern = Sim.Failure_pattern.initial_dead ~n ~dead:f.f_dead;
        weights;
        max_crashes = f.f_max_crashes;
        max_steps = f.f_max_steps;
        properties =
          ([ Sim.Fuzz.K_agreement f.f_k; Sim.Fuzz.Validity ]
          @ if f.f_termination then [ Sim.Fuzz.Termination ] else []);
        stop = Some stop;
        model = f.f_model;
        coverage = f.f_coverage;
      } )

(* Every campaign resumes at any domain count, whatever count wrote
   its checkpoint. *)
let run ?(attempt = 0) ?(domains = 1) ?(stop = fun () -> false)
    ?(ckpt = Checkpoint.ctl ()) ?resume spec =
  match spec with
  | Probe p -> Ok (run_probe ~attempt ~ckpt ~stop p)
  | Explore e -> (
      let n = e.e_n in
      let l = resolve_l ~n e.e_l in
      match algo_conv ~l ~wait_for:e.e_wait e.e_algo with
      | Error _ as err -> err
      | Ok (module A) -> (
          match policy_conv e.e_policy with
          | Error _ as err -> err
          | Ok policy -> (
              let module Ex = Sim.Explorer.Make (A) in
              let inputs = Sim.Value.distinct_inputs n in
              let check = k_check ~k:e.e_k in
              let reduction = e.e_reduction in
              let max_configs = e.e_max_configs in
              let not_explorable msg = Error ("not explorable: " ^ msg) in
              try
                if explore_crashless e then
                  match Sim.Failure_pattern.initial_dead ~n ~dead:e.e_dead with
                  | exception Invalid_argument msg -> not_explorable msg
                  | pattern ->
                      Ok
                        (Explored
                           (Ex.explore ~reduction ~domains ?max_configs ~policy
                              ~ckpt ?resume ~n ~inputs ~pattern ~check ()))
                else
                  Ok
                    (Crash_explored
                       (Ex.explore_with_crashes ~reduction ~model:e.e_model
                          ~domains ?max_configs ~policy
                          ~drop_on_crash:e.e_drop ~initially_dead:e.e_dead
                          ~ckpt ?resume ~n ~inputs
                          ~crash_budget:e.e_crash_budget ~check ()))
              with Sim.Explorer.Not_explorable msg -> not_explorable msg)))
  | Fuzz f ->
      let* (module A : Sim.Algorithm.S), cfg = fuzz_setup ~stop f in
      let module F = Sim.Fuzz.Make (A) in
      Ok
        (Fuzzed
           (F.run ~domains ~ckpt ?resume_payload:resume cfg ~seed:f.f_seed
              ~trials:f.f_trials))

let replay ~path f =
  let* (module A : Sim.Algorithm.S), cfg =
    fuzz_setup ~stop:(fun () -> false) f
  in
  (* a schedule recorded under another model is refused, not silently
     replayed under this one *)
  let* sched = Sim.Trace_io.load_schedule ~expect:f.f_model ~path () in
  let module F = Sim.Fuzz.Make (A) in
  (* a schedule that cannot be replayed to its end is refused, never
     judged on the prefix that did run *)
  let* run =
    Result.map_error (fun e -> "replay: " ^ e) (F.replay_strict cfg sched)
  in
  Ok (Replayed { violation = F.check_run cfg run; steps = List.length sched })

let counterexample = function
  | Fuzzed (Sim.Fuzz.Violation_found v) -> Some v
  | Explored _ | Crash_explored _ | Fuzzed _ | Replayed _ | Probed _ -> None

(* ---------- summaries ---------- *)

type summary = {
  verdict : string;
  exit_code : int;
  detail : string;
  items : int;
}

let pp_stats (s : Sim.Explorer.stats) =
  Printf.sprintf "%d configs visited, %d terminal runs%s"
    s.Sim.Explorer.configs_visited s.Sim.Explorer.terminal_runs
    (if s.Sim.Explorer.budget_exhausted then " (budget exhausted)" else "")

let summary verdict exit_code ~items fmt =
  Printf.ksprintf (fun detail -> { verdict; exit_code; detail; items }) fmt

(* exit codes: 0 nothing found, 2 a violation, 3 a stuck configuration,
   4 a budget cut the search short (the verdict is then indeterminate) *)
let summarize = function
  | Explored (Sim.Explorer.Safe s) when s.Sim.Explorer.budget_exhausted ->
      (* no violation in the explored prefix, but the prefix is not the
         space: refuse the optimistic verdict *)
      summary "indeterminate" 4 ~items:s.Sim.Explorer.configs_visited
        "INDETERMINATE: no violation in the explored prefix, but the budget \
         truncated the search — %s"
        (pp_stats s)
  | Explored (Sim.Explorer.Safe s) ->
      summary "safe" 0 ~items:s.Sim.Explorer.configs_visited "SAFE: %s"
        (pp_stats s)
  | Explored (Sim.Explorer.Violation { reason; depth; _ }) ->
      summary "violation" 2 ~items:depth "VIOLATION at depth %d: %s" depth
        reason
  | Crash_explored (Sim.Explorer.All_paths_decide s) ->
      summary "all-paths-decide" 0 ~items:s.Sim.Explorer.configs_visited
        "ALL PATHS DECIDE: %s" (pp_stats s)
  | Crash_explored (Sim.Explorer.Safety_violation { reason; _ }) ->
      summary "violation" 2 ~items:0 "VIOLATION: %s" reason
  | Crash_explored (Sim.Explorer.Stuck { crashed; undecided_correct; stats })
    ->
      let pids l = String.concat "," (List.map (Printf.sprintf "p%d") l) in
      summary "stuck" 3 ~items:stats.Sim.Explorer.configs_visited
        "STUCK: crashes {%s} strand {%s} undecided — %s" (pids crashed)
        (pids undecided_correct) (pp_stats stats)
  | Crash_explored (Sim.Explorer.Indeterminate s) ->
      summary "indeterminate" 4 ~items:s.Sim.Explorer.configs_visited
        "INDETERMINATE: the budget truncated the search before the reachable \
         graph closed — %s"
        (pp_stats s)
  | Fuzzed (Sim.Fuzz.Violation_found v) ->
      summary "violation" 2 ~items:v.Sim.Fuzz.trial
        "VIOLATION at trial %d (%s): %s" v.Sim.Fuzz.trial v.Sim.Fuzz.property
        v.Sim.Fuzz.reason
  | Fuzzed (Sim.Fuzz.Clean { trials }) ->
      summary "clean" 0 ~items:trials "CLEAN: %d trials, no violation" trials
  | Fuzzed (Sim.Fuzz.Budget_exhausted { trials }) ->
      summary "budget-exhausted" 4 ~items:trials
        "BUDGET EXHAUSTED: no violation in the %d trials that ran before the \
         budget"
        trials
  | Replayed { violation = Some (prop, reason); steps } ->
      summary "violation" 2 ~items:steps "VIOLATION (%s): %s"
        (Sim.Fuzz.property_name prop) reason
  | Replayed { violation = None; steps } ->
      summary "clean" 0 ~items:steps
        "CLEAN: replaying %d steps violates nothing" steps
  | Probed { attempt } ->
      summary "ok" 0 ~items:1 "probe completed on attempt %d" attempt

let summary_to_json s =
  Json.Obj
    [
      ("verdict", Json.Str s.verdict);
      ("exit", Json.Int s.exit_code);
      ("detail", Json.Str s.detail);
      ("items", Json.Int s.items);
    ]

let summary_of_json j =
  let field k get =
    match Option.map get (Json.mem k j) with
    | Some (Some v) -> Ok v
    | _ -> Error (Printf.sprintf "summary: bad field %S" k)
  in
  let* verdict = field "verdict" Json.get_string in
  let* exit_code = field "exit" Json.get_int in
  let* detail = field "detail" Json.get_string in
  let* items = field "items" Json.get_int in
  Ok { verdict; exit_code; detail; items }
