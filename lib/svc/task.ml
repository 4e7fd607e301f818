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

(* ---------- the spec table ---------- *)

type shape = Int | String | Bool | Ints | Float

type field = {
  key : string;
  flags : string list;
  docv : string;
  doc : string;
  shape : shape;
  default : Json.t option;
}

let field ?flags ?default ?(docv = "") key shape doc =
  { key; flags = Option.value flags ~default:[ key ]; docv; doc; shape; default }

module Fields = struct
  let algo = field "algo" String ~docv:"ALGO" ~default:(Json.Str "kset-flp")
      "Algorithm: kset-flp, naive-min, trivial, or synod."
  let n = field "n" Int ~flags:[ "n"; "size" ] ~docv:"N" ~default:(Json.Int 6)
      "System size."
  let k = field "k" Int ~flags:[ "k"; "kset" ] ~docv:"K" ~default:(Json.Int 2)
      "Agreement parameter k."
  let l = field "l" Int ~flags:[ "l"; "wait-quorum" ] ~docv:"L"
      "Protocol parameter L, the reports kset-flp waits for (default n-1, \
       at least 1)."
  let wait = field "wait" Int ~flags:[ "wait-for" ] ~docv:"W" ~default:(Json.Int 2)
      "naive-min wait-for parameter."
  let dead = field "dead" Ints ~docv:"PIDS" ~default:(Json.List [])
      "Initially dead processes."
  let model = field "model" String ~docv:"MODEL" ~default:(Json.Str "crash")
      "Fault model: $(b,crash) (the default; failures come from \
       --crash-budget / --max-crashes / --dead), $(b,byzantine[:T]) (up to \
       T corrupted processes whose pending messages may be forged \
       per-receiver — equivocation allowed; T defaults to 1 and overrides \
       the crash budget), or $(b,mobile[:T]) (no permanent faults; each \
       round a fresh set of at most T processes has its outgoing messages \
       omitted)."
  let crash_budget = field "crash-budget" Int ~docv:"B" ~default:(Json.Int 0)
      "Adversarial crashes at any point (0 = schedule/delivery \
       nondeterminism only)."
  let policy = field "policy" String ~docv:"POLICY" ~default:(Json.Str "per-sender")
      "Delivery policy: per-sender, empty-or-all, or all-subsets."
  let reduction = field "reduction" String ~docv:"MODE" ~default:(Json.Str "none")
      "State-space reduction: $(b,none) (exact interned keys) or $(b,sym) \
       (dedup on canonical orbit keys under permutations of crashed \
       processes).  Verdicts and reachable decision values are invariant \
       across modes; visited-configuration counts are not."
  let max_configs = field "max-configs" Int ~docv:"M"
      "Stop after exploring M configurations (at most 2147483647 when \
       processes can crash or misbehave)."
  let drop = field "drop-on-crash" Bool ~default:(Json.Bool false)
      "Also explore dropping each crashed process's pending messages \
       (last-step omission)."
  let seed = field "seed" Int ~docv:"SEED" ~default:(Json.Int 1) "PRNG seed."
  let trials = field "trials" Int ~docv:"T" ~default:(Json.Int 1000)
      "Number of random schedules to try."
  let max_steps = field "max-steps" Int ~docv:"S" ~default:(Json.Int 200)
      "Per-trial step budget."
  let max_crashes = field "max-crashes" Int ~docv:"C" ~default:(Json.Int 0)
      "Per trial, draw up to C random crash times on top of the base \
       failure pattern."
  let weights = field "weights" String ~docv:"W" ~default:(Json.Str "mixed")
      "Action weighting: 'mixed' (partial/empty deliveries and crash-drops) \
       or 'fair' (deliver-all steps only)."
  let termination =
    field "termination" Bool ~flags:[ "require-termination" ]
      ~default:(Json.Bool false)
      "Also flag runs that exhaust the step budget with a correct process \
       undecided (use with fair weights)."
  let coverage = field "coverage" Bool ~default:(Json.Bool false)
      "Coverage-guided (greybox) generation: track which interned state ids \
       and state transitions each trial reaches, keep a corpus of schedules \
       that lit new coverage, and mutate corpus entries instead of always \
       sampling fresh schedules.  Deterministic for a fixed seed, like blind \
       mode; the corpus rides the checkpoint, so kill/resume campaigns keep \
       their learned coverage."
  let fail = field "fail" Int ~flags:[] ~docv:"F" ~default:(Json.Int 0)
      "Raise on attempts 0 .. F-1."
  let spin = field "spin" Float ~flags:[] ~docv:"SEC" ~default:(Json.Float 0.)
      "Interruptible busy-sleep, seconds."
end

let explore_fields =
  Fields.[ algo; n; k; l; wait; dead; crash_budget; model; policy; reduction;
           max_configs; drop ]

let fuzz_fields =
  Fields.[ algo; n; k; l; wait; dead; seed; trials; max_steps; max_crashes;
           weights; termination; coverage; model ]

let probe_fields = Fields.[ fail; spin ]

(* [f]'s value in the object [j], or its default: total on an object
   whose keys passed [check_keys], for a field with a default *)
let read conv j f =
  let v = match Json.mem f.key j with None -> f.default | v -> v in
  match Option.bind v conv with
  | Some x -> x
  | None -> invalid_arg ("Task: no value for field " ^ f.key)

let read_int = read Json.get_int
let read_string = read Json.get_string
let read_ints =
  read (fun v -> Option.map (List.filter_map Json.get_int) (Json.get_list v))

(* [l] and [max-configs], which have no default *)
let read_int_opt j f = Option.bind (Json.mem f.key j) Json.get_int

(* a field as refusals name it: the JSON key, and the long flag when
   that is spelled differently *)
let describe f =
  match List.filter (fun fl -> String.length fl > 1 && fl <> f.key) f.flags with
  | long :: _ -> Printf.sprintf "%S (--%s)" f.key long
  | [] -> Printf.sprintf "%S" f.key

(* every key of the spec object [j] but "task" names a field of
   [table], and its value has that field's shape *)
let check_keys ~task table j =
  let check (key, v) =
    match (List.find_opt (fun f -> f.key = key) table, v) with
    | _ when key = "task" -> Ok ()
    | None, _ -> Error (Printf.sprintf "unknown field %S for task %s" key task)
    | Some { shape = Int; _ }, Json.Int _
    | Some { shape = String; _ }, Json.Str _
    | Some { shape = Bool; _ }, Json.Bool _
    | Some { shape = Float; _ }, (Json.Float _ | Json.Int _) -> Ok ()
    | Some { shape = Ints; _ }, Json.List l
      when List.for_all (function Json.Int _ -> true | _ -> false) l -> Ok ()
    | Some f, _ ->
        let names = [ (Int, "an integer"); (String, "a string");
                      (Bool, "a boolean"); (Ints, "a list of integers");
                      (Float, "a number") ] in
        Error (Printf.sprintf "field %S must be %s" key (List.assoc f.shape names))
  in
  match j with
  | Json.Obj kvs ->
      List.fold_left (fun acc kv -> Result.bind acc (fun () -> check kv))
        (Ok ()) kvs
  | _ -> Error "a spec must be a JSON object"

(* ---------- names to values, and ranges ---------- *)

let at_least lo f v =
  if v >= lo then Ok ()
  else
    Error
      (Printf.sprintf "field %s must be at least %d, got %d" (describe f) lo v)

let resolve_l ~n = function Some l -> l | None -> max 1 (n - 1)

let algo_conv ~n ~l ~wait_for name =
  let in_range f v =
    if 1 <= v && v <= n then Ok ()
    else
      Error
        (Printf.sprintf "%s: field %s must be in 1..%d, got %d" name
           (describe f) n v)
  in
  match name with
  | "kset-flp" ->
      (* one decision-rule bitmask bit per pid *)
      let* () =
        if n <= Algo.Kset_flp.max_n then Ok ()
        else
          Error
            (Printf.sprintf "%s: field %s must be at most %d, got %d" name
               (describe Fields.n) Algo.Kset_flp.max_n n)
      in
      let* () = in_range Fields.l l in
      let module K = Algo.Kset_flp.Make (struct
        let l = l
      end) in
      Ok (module K : Sim.Algorithm.S)
  | "naive-min" ->
      let* () = in_range Fields.wait wait_for in
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
  let obj task kvs =
    Json.Obj
      (("task", Json.Str task)
      :: List.filter_map (fun (f, v) -> Option.map (fun v -> (f.key, v)) v) kvs)
  in
  let int i = Some (Json.Int i) and str s = Some (Json.Str s) in
  let bool b = Some (Json.Bool b) and opt = Option.map (fun i -> Json.Int i) in
  let ints l = Some (Json.List (List.map (fun i -> Json.Int i) l)) in
  let fault_model m = str (Sim.Fault_model.to_string m) in
  match spec with
  | Explore e ->
      obj "explore"
        Fields.
          [
            (algo, str e.e_algo); (n, int e.e_n); (k, int e.e_k);
            (l, opt e.e_l); (wait, int e.e_wait); (dead, ints e.e_dead);
            (crash_budget, int e.e_crash_budget); (model, fault_model e.e_model);
            (policy, str e.e_policy);
            (reduction, str (Sim.Canon.reduction_to_string e.e_reduction));
            (max_configs, opt e.e_max_configs); (drop, bool e.e_drop);
          ]
  | Fuzz f ->
      obj "fuzz"
        Fields.
          [
            (algo, str f.f_algo); (n, int f.f_n); (k, int f.f_k);
            (l, opt f.f_l); (wait, int f.f_wait); (dead, ints f.f_dead);
            (seed, int f.f_seed); (trials, int f.f_trials);
            (max_steps, int f.f_max_steps); (max_crashes, int f.f_max_crashes);
            (weights, str f.f_weights); (termination, bool f.f_termination);
            (coverage, bool f.f_coverage); (model, fault_model f.f_model);
          ]
  | Probe p ->
      obj "probe"
        Fields.[ (fail, int p.p_fail); (spin, Some (Json.Float p.p_spin)) ]

(* a dead pid listed twice is refused; so is one outside [0..n-1]
   when [n] is given *)
let check_dead ?n dead =
  let rec go seen = function
    | [] -> Ok ()
    | p :: _ when Option.fold ~none:false ~some:(fun n -> p < 0 || p >= n) n ->
        Error
          (Printf.sprintf "field %s: pid %d is out of range 0..%d"
             (describe Fields.dead) p (Option.get n - 1))
    | p :: _ when List.mem p seen ->
        Error
          (Printf.sprintf "field %s lists pid %d twice" (describe Fields.dead) p)
    | p :: rest -> go (p :: seen) rest
  in
  go [] dead

(* The ranges a spec must lie in to run, each refusal naming its
   field.  The algorithm is built with the spec's own (n, L, wait), so
   every range its functor would raise on is refused here instead.  An
   explore spec's dead pids out of range are left to the explorer and
   the failure pattern, which refuse them by name before any work; a
   repeated one is refused here, for both engines. *)
let check spec =
  let point ~n ~k ~l ~wait algo =
    let* () = at_least 1 Fields.n n in
    let* () = at_least 1 Fields.k k in
    algo_conv ~n ~l:(resolve_l ~n l) ~wait_for:wait algo
  in
  let* () =
    match spec with
    | Explore e ->
        let* _ = point ~n:e.e_n ~k:e.e_k ~l:e.e_l ~wait:e.e_wait e.e_algo in
        let* _ = policy_conv e.e_policy in
        let* () = check_dead e.e_dead in
        let* () = at_least 0 Fields.crash_budget e.e_crash_budget in
        let* () =
          Option.fold ~none:(Ok ()) ~some:(at_least 0 Fields.max_configs)
            e.e_max_configs
        in
        (* a crash graph's node ids are int32 *)
        let cap = Sim.Explorer.Row.max_nodes in
        if explore_crashless e then Ok ()
        else
          Option.fold ~none:(Ok ())
            ~some:(fun m ->
              if m <= cap then Ok ()
              else
                Error
                  (Printf.sprintf
                     "field %s must be at most %d for a crash exploration, \
                      got %d"
                     (describe Fields.max_configs) cap m))
            e.e_max_configs
    | Fuzz f ->
        let* a = point ~n:f.f_n ~k:f.f_k ~l:f.f_l ~wait:f.f_wait f.f_algo in
        let* _ = fuzzable a in
        let* _ = weights_conv f.f_weights in
        let* () = check_dead ~n:f.f_n f.f_dead in
        let* () = at_least 0 Fields.trials f.f_trials in
        let* () = at_least 0 Fields.max_steps f.f_max_steps in
        at_least 0 Fields.max_crashes f.f_max_crashes
    | Probe _ -> Ok ()
  in
  Ok spec

let explore_of_json j =
  let int = read_int j and str = read_string j in
  let* e_model = Sim.Fault_model.of_string (str Fields.model) in
  let* e_reduction = Sim.Canon.reduction_of_string (str Fields.reduction) in
  check
    (Explore
       {
         e_algo = str Fields.algo;
         e_n = int Fields.n;
         e_k = int Fields.k;
         e_l = read_int_opt j Fields.l;
         e_wait = int Fields.wait;
         e_dead = read_ints j Fields.dead;
         e_crash_budget = int Fields.crash_budget;
         e_model;
         e_policy = str Fields.policy;
         e_reduction;
         e_max_configs = read_int_opt j Fields.max_configs;
         e_drop = read Json.get_bool j Fields.drop;
       })

let fuzz_of_json j =
  let int = read_int j and str = read_string j and bool = read Json.get_bool j in
  let* f_model = Sim.Fault_model.of_string (str Fields.model) in
  check
    (Fuzz
       {
         f_algo = str Fields.algo;
         f_n = int Fields.n;
         f_k = int Fields.k;
         f_l = read_int_opt j Fields.l;
         f_wait = int Fields.wait;
         f_dead = read_ints j Fields.dead;
         f_seed = int Fields.seed;
         f_trials = int Fields.trials;
         f_max_steps = int Fields.max_steps;
         f_max_crashes = int Fields.max_crashes;
         f_weights = str Fields.weights;
         f_termination = bool Fields.termination;
         f_coverage = bool Fields.coverage;
         f_model;
       })

let probe_of_json j =
  let spin = read Json.get_float j Fields.spin in
  Ok (Probe { p_fail = read_int j Fields.fail; p_spin = spin })

let spec_of_json j =
  match Option.bind (Json.mem "task" j) Json.get_string with
  | None -> Error "missing field \"task\" (a string)"
  | Some task -> (
      match
        List.assoc_opt task
          [
            ("explore", (explore_fields, explore_of_json));
            ("fuzz", (fuzz_fields, fuzz_of_json));
            ("probe", (probe_fields, probe_of_json));
          ]
      with
      | None -> Error (Printf.sprintf "unknown task %S" task)
      | Some (table, of_json) ->
          let* () = check_keys ~task table j in
          of_json j)

(* ---------- opening a campaign ---------- *)

type campaign = {
  ckpt : Checkpoint.ctl;
  payload : string option;
  rejected : string option;
}

let open_campaign ?checkpoint ?(policy = Checkpoint.default_policy) ?resume
    ~interrupt spec =
  let kind = kind spec and fingerprint = fingerprint spec in
  let load path =
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    match Checkpoint.load ~path with
    | Error e -> fail "cannot resume: %s" e
    | Ok t when Checkpoint.kind t <> kind ->
        fail "%s is a %S checkpoint, not %S" path (Checkpoint.kind t) kind
    | Ok t when Checkpoint.fingerprint t <> fingerprint ->
        fail "%s was written under different campaign parameters" path
    | Ok t -> (
        match Checkpoint.restore_interners t with
        | Error e -> fail "cannot resume: %s" e
        | Ok () -> Ok t)
  in
  let resumed, rejected =
    match Option.map load resume with
    | Some (Ok t) -> (Some t, None)
    | Some (Error reason) -> (None, Some reason)
    | None -> (None, None)
  in
  let sink =
    Option.map
      (fun path -> { Checkpoint.path; kind; fingerprint; policy })
      checkpoint
  in
  let ledger = Option.fold ~none:[] ~some:Checkpoint.ledger resumed in
  {
    ckpt = Checkpoint.ctl ?sink ~interrupt ~ledger ();
    (* the full payload: a coverage campaign's corpus rides in it *)
    payload = Option.map Checkpoint.payload resumed;
    rejected;
  }

(* ---------- execution ---------- *)

type outcome =
  | Explored of Sim.Explorer.outcome
  | Crash_explored of Sim.Explorer.resilient_outcome
  | Fuzzed of (Sim.Fuzz.outcome * Sim.Fuzz.coverage_summary option)
  | Replayed of { violation : (Sim.Fuzz.property * string) option; steps : int }
  | Probed of { attempt : int }

let run_probe ~attempt ~ckpt p =
  if attempt < p.p_fail then
    failwith
      (Printf.sprintf "probe: injected failure (attempt %d of %d)" attempt
         p.p_fail);
  let deadline = p.p_spin in
  let slept = ref 0. in
  while !slept < deadline && not (Checkpoint.interrupted ckpt) do
    let slice = Float.min 0.01 (deadline -. !slept) in
    Unix.sleepf slice;
    slept := !slept +. slice
  done;
  Probed { attempt }

(* A fuzz campaign's algorithm and config, made in this one place:
   [run] and [replay] share it, so a replayed schedule runs under
   exactly the config of the campaign that recorded it. *)
let fuzz_setup f =
  let n = f.f_n in
  let* algo =
    Result.bind
      (algo_conv ~n ~l:(resolve_l ~n f.f_l) ~wait_for:f.f_wait f.f_algo)
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
        model = f.f_model;
        coverage = f.f_coverage;
      } )

(* Every campaign resumes at any domain count, whatever count wrote
   its checkpoint. *)
let run ?(attempt = 0) ?(domains = 1) ?(ckpt = Checkpoint.ctl ()) ?resume spec
    =
  match spec with
  | Probe p -> Ok (run_probe ~attempt ~ckpt p)
  | Explore e -> (
      let n = e.e_n in
      let l = resolve_l ~n e.e_l in
      let* (module A : Sim.Algorithm.S) =
        algo_conv ~n ~l ~wait_for:e.e_wait e.e_algo
      in
      let* policy = policy_conv e.e_policy in
      let module Ex = Sim.Explorer.Make (A) in
      let inputs = Sim.Value.distinct_inputs n in
      let check = Sim.Kset_spec.k_agreement ~k:e.e_k in
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
                   (Ex.explore ~reduction ~domains ?max_configs ~policy ~ckpt
                      ?resume ~n ~inputs ~pattern ~check ()))
        else
          Ok
            (Crash_explored
               (Ex.explore_with_crashes ~reduction ~model:e.e_model ~domains
                  ?max_configs ~policy ~drop_on_crash:e.e_drop
                  ~initially_dead:e.e_dead ~ckpt ?resume ~n ~inputs
                  ~crash_budget:e.e_crash_budget ~check ()))
      with Sim.Explorer.Not_explorable msg -> not_explorable msg)
  | Fuzz f ->
      let* (module A : Sim.Algorithm.S), cfg = fuzz_setup f in
      let module F = Sim.Fuzz.Make (A) in
      Ok
        (Fuzzed
           (F.campaign ~domains ~ckpt ?resume_payload:resume cfg ~seed:f.f_seed
              ~trials:f.f_trials))

let replay ~path f =
  let* (module A : Sim.Algorithm.S), cfg = fuzz_setup f in
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

(* ---------- summaries ---------- *)

type summary = {
  verdict : string;
  exit_code : int;
  detail : string;
  lines : string list;
  items : int;
}

let pp_stats (s : Sim.Explorer.stats) =
  Printf.sprintf "%d configs visited, %d terminal runs%s"
    s.Sim.Explorer.configs_visited s.Sim.Explorer.terminal_runs
    (if s.Sim.Explorer.budget_exhausted then " (budget exhausted)" else "")

let summary verdict exit_code ~items fmt =
  Printf.ksprintf
    (fun detail -> { verdict; exit_code; detail; lines = [ detail ]; items })
    fmt

(* exit codes: 0 nothing found, 2 a violation, 3 a stuck configuration,
   4 a budget cut the search short (the verdict is then indeterminate) *)
let headline = function
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
  | Fuzzed (Sim.Fuzz.Violation_found v, _) ->
      summary "violation" 2 ~items:v.Sim.Fuzz.trial
        "VIOLATION at trial %d (%s): %s" v.Sim.Fuzz.trial v.Sim.Fuzz.property
        v.Sim.Fuzz.reason
  | Fuzzed (Sim.Fuzz.Clean { trials }, _) ->
      summary "clean" 0 ~items:trials "CLEAN: %d trials, no violation" trials
  | Fuzzed (Sim.Fuzz.Budget_exhausted { trials }, _) ->
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

(* what a fuzz campaign prints after its headline: the coverage map,
   then the counterexample's schedule *)
let fuzz_lines (outcome, coverage) =
  let open Sim.Fuzz in
  Option.fold coverage ~none:[] ~some:(fun c ->
      [ Printf.sprintf "coverage: %d state ids, %d transition pairs, corpus %d"
          c.cov_ids c.cov_pairs (List.length c.cov_corpus) ])
  @
  match outcome with
  | Violation_found v when v.replays ->
      [ Printf.sprintf
          "schedule: %d steps, shrunk to %d (1-minimal, %d candidate replays)"
          (List.length v.schedule) (List.length v.shrunk) v.shrink_candidates ]
  | Violation_found v ->
      [ Printf.sprintf
          "schedule: %d steps, not shrunk (its replay does not violate, %d \
           candidate replays)"
          (List.length v.schedule) v.shrink_candidates ]
  | Clean _ | Budget_exhausted _ -> []

let summarize outcome =
  let s = headline outcome in
  match outcome with
  | Fuzzed f -> { s with lines = s.detail :: fuzz_lines f }
  | Explored _ | Crash_explored _ | Replayed _ | Probed _ -> s

let summary_to_json s =
  Json.Obj
    [
      ("verdict", Json.Str s.verdict);
      ("exit", Json.Int s.exit_code);
      ("detail", Json.Str s.detail);
      ("lines", Json.List (List.map (fun l -> Json.Str l) s.lines));
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
  (* a record written before summaries held their lines has the
     headline alone; the lines of any other start with it *)
  let* lines =
    match Option.map Json.get_list (Json.mem "lines" j) with
    | None -> Ok [ detail ]
    | Some (Some (first :: _ as ls))
      when Json.get_string first = Some detail
           && List.for_all (fun l -> Json.get_string l <> None) ls ->
        Ok (List.filter_map Json.get_string ls)
    | Some _ -> Error "summary: bad field \"lines\""
  in
  Ok { verdict; exit_code; detail; lines; items }
