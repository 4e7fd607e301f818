(* The five workloads and the inputs each one generates from its seed.

   Every input of a run is a pure function of (workload seed, pass,
   slot), drawn from the benchmark's own generator ([Rng]); the
   program under test receives only these generated values.  The
   [inputs] command prints them, so two commits can be shown to get
   byte-identical inputs. *)

module Explorer = Ksa_sim.Explorer
module Canon = Ksa_sim.Canon
module J = Ksa_svc.Json

type profile = Full | Smoke

type workload = Border_seq | Border_par2 | Explore_ckpt | Fuzz_hunt | Serve_sweep

let workloads = [ Border_seq; Border_par2; Explore_ckpt; Fuzz_hunt; Serve_sweep ]

let name = function
  | Border_seq -> "border-seq"
  | Border_par2 -> "border-par2"
  | Explore_ckpt -> "explore-ckpt"
  | Fuzz_hunt -> "fuzz-hunt"
  | Serve_sweep -> "serve-sweep"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* A pass's length on a calm machine, in seconds.  A run of [seconds]
   makes that many seconds' worth of whole passes, at least one;
   serve-sweep makes one pass, whose sweeps' count follows
   [seconds]. *)
let passes w ~seconds =
  let pass_s =
    match w with
    | Border_seq -> 8.
    | Border_par2 -> 16.
    | Explore_ckpt -> 6.5
    | Fuzz_hunt -> 7.
    | Serve_sweep -> infinity
  in
  max 1 (int_of_float (Float.round (seconds /. pass_s)))

(* ---------- border cells ---------- *)

(* One crash-model cell of the (n, k, t) border: explored with
   crash budget [t] and L = n - t, checked for k-agreement. *)
type cell = {
  n : int;
  t : int;
  k : int;
  policy : Explorer.delivery_policy;
  reduction : Canon.reduction;
  inputs : int array;
}

let cell_l c = c.n - c.t

(* The n=3 cells fit in the caches, the n=4 empty-or-all cells
   (50k-134k configurations each) do not; n=4 per-sender k=1 t=2 is
   the one n=4 per-sender cell small enough to sweep (it stops at its
   violation). *)
let cell_shapes = function
  | Full ->
      List.concat
        [
          List.concat_map
            (fun k ->
              List.map
                (fun t -> (3, t, k, Explorer.Per_sender, Canon.No_reduction))
                [ 1; 2 ])
            [ 1; 2; 3 ];
          List.concat_map
            (fun k ->
              List.map
                (fun t -> (4, t, k, Explorer.Empty_or_all, Canon.Symmetry))
                [ 1; 2 ])
            [ 1; 2; 3 ];
          [ (4, 2, 1, Explorer.Per_sender, Canon.Symmetry) ];
        ]
  | Smoke ->
      [
        (3, 2, 1, Explorer.Per_sender, Canon.No_reduction);
        (3, 2, 3, Explorer.Per_sender, Canon.No_reduction);
      ]

let cells profile ~seed ~pass =
  List.mapi
    (fun i (n, t, k, policy, reduction) ->
      { n; t; k; policy; reduction; inputs = Rng.distinct (Rng.derive seed [ 1; pass; i ]) n })
    (cell_shapes profile)

(* ---------- explore-ckpt ---------- *)

(* A crash-free per-sender campaign cut by its config budget on
   purpose (it is labelled truncated), checkpointed every
   [every_items] configurations.  The same campaign is then killed
   half way, by interrupting it after its final checkpoint, and
   restarted from that checkpoint [restarts] times, each time in a
   fresh process and to the end. *)
type ckpt = {
  c_n : int;
  c_l : int;
  c_k : int;
  max_configs : int;
  every_items : int;
  restarts : int;
  c_inputs : int array;
}

let ckpt profile ~seed ~pass =
  let c_inputs = Rng.distinct (Rng.derive seed [ 2; pass ]) 4 in
  let max_configs, every_items, restarts =
    match profile with Full -> (160_000, 40_000, 3) | Smoke -> (3_000, 1_000, 1)
  in
  { c_n = 4; c_l = 3; c_k = 1; max_configs; every_items; restarts; c_inputs }

(* ---------- fuzz-hunt ---------- *)

(* A hunt's attempts: the fuzzer restarted with the next seed when an
   attempt reaches [h_cap] trials without a violation. *)
type hunt = { h_seeds : int list; h_inputs : int array }

(* One part of a k=2 campaign: its seed and inputs *)
type part = { p_seed : int; p_inputs : int array }

type fuzz = {
  h_n : int;
  h_l : int;
  h_k : int;
  h_cap : int;
  hunts : hunt list;
  clean_n : int;
  clean_l : int;
  clean_k : int;
  clean_crashes : int;
  clean_trials : int;  (** per part *)
  clean : part list;
  cov_trials : int;  (** per part *)
  cov : part list;
}

(* Three kinds of campaign on kset-flp at n=4 L=2.  Coverage-guided
   hunts for a 1-agreement violation, which needs a near-partition
   schedule; blind parallel campaigns at k=2, clean by Theorem 8; and
   coverage-guided campaigns, also at k=2, whose trials are timed one
   by one.  Trial latency is taken from the clean campaigns rather
   than the hunts because a hunt's length, and so its mix of trials,
   is whatever its seed makes it.  Trials to a violation are
   heavy-tailed (40 seeds: 31 to 15 855; one seed in about a hundred
   needs 63 000), so a hunt restarts with its next seed after 20 000
   trials rather than running one seed's tail out.

   The k=2 campaigns come in parts of a few hundred milliseconds, each
   in a process of its own with its own speed reading: one 3-second
   campaign per pass left its throughput at the mercy of whether its
   reading caught a burst (one seed run six times: spread 0.36). *)
let fuzz profile ~seed ~pass =
  let hunt i =
    let r = Rng.derive seed [ 3; pass; i ] in
    let h_seeds = List.init 4 (fun _ -> Rng.int r 1_000_000_000) in
    { h_seeds; h_inputs = Rng.distinct r 4 }
  in
  let part kind i =
    let r = Rng.derive seed [ kind; pass; i ] in
    let p_seed = Rng.int r 1_000_000_000 in
    { p_seed; p_inputs = Rng.distinct r 4 }
  in
  let hunts, h_l, h_cap, (clean_parts, clean_trials), (cov_parts, cov_trials) =
    match profile with
    | Full -> (List.init 4 hunt, 2, 20_000, (6, 3_000), (4, 1_500))
    | Smoke -> (List.init 1 hunt, 1, 1_000, (1, 200), (1, 100))
  in
  {
    h_n = 4;
    h_l;
    h_k = 1;
    h_cap;
    hunts;
    clean_n = 4;
    clean_l = 2;
    clean_k = 2;
    clean_crashes = 2;
    clean_trials;
    clean = List.init clean_parts (part 4);
    cov_trials;
    cov = List.init cov_parts (part 6);
  }

(* ---------- serve-sweep ---------- *)

type job = {
  spec : J.t;  (** the POST /jobs body's "spec" *)
  expect : string list;  (** the verdicts a correct daemon may report *)
}

(* One cell of the E14 fault-model border sweep (EXPERIMENTS.md):
   kset-flp at n=3, L = n-t, k-agreement under fault model [model]
   with budget [t]. *)
type e14 = { model : string; k : int; t : int }

(* The grid minus Byzantine k=3 at t=1 and t=2, which enumerate 1.1M
   and 2.6M configurations (13 s and 38 s on the CLI): either would
   hold the one-job-at-a-time daemon for longer than a whole run. *)
let e14_cells =
  List.concat_map
    (fun model ->
      List.concat_map
        (fun k ->
          List.filter_map
            (fun t -> if model = "byzantine" && k = 3 && t > 0 then None else Some { model; k; t })
            [ 0; 1; 2 ])
        [ 1; 2; 3 ])
    [ "crash"; "byzantine"; "mobile" ]

(* E14's measured safety column: crash and mobile follow Theorem 8's
   kn > (k+1)t, and one Byzantine sender also splits the decisions at
   t=1 for k <= 2, where a crash only leaves the protocol stuck. *)
let e14_safe c =
  Ksa_algo.Kset_flp.solvable ~n:3 ~f:c.t ~k:c.k
  && not (c.model = "byzantine" && c.t = 1 && c.k <= 2)

(* The job [ksa job submit] sends for the cell, with E14's budget *)
let explore_job c =
  J.Obj
    [
      ("task", J.Str "explore");
      ("algo", J.Str "kset-flp");
      ("n", J.Int 3);
      ("l", J.Int (3 - c.t));
      ("k", J.Int c.k);
      ("crash-budget", J.Int c.t);
      ("model", J.Str (if c.model = "crash" then "crash" else Printf.sprintf "%s:%d" c.model c.t));
      ("max-configs", J.Int 4_000_000);
    ]

let explore_expect c =
  if e14_safe c then [ "safe"; "all-paths-decide"; "stuck" ] else [ "violation" ]

(* The fuzz job of the CI daemon leg, with a seed-drawn seed: n=3 L=2
   k=1 with one crash per trial is clean (Theorem 8: 3 > 2) *)
let fuzz_job ~seed ~trials =
  J.Obj
    [
      ("task", J.Str "fuzz");
      ("algo", J.Str "kset-flp");
      ("n", J.Int 3);
      ("l", J.Int 2);
      ("k", J.Int 1);
      ("max-crashes", J.Int 1);
      ("seed", J.Int seed);
      ("trials", J.Int trials);
    ]

(* fails its first attempt: the daemon's retry and backoff path *)
let probe_job = J.Obj [ ("task", J.Str "probe"); ("fail", J.Int 1); ("spin", J.Float 0.01) ]

(* One sweep, the batch a user submits and then waits for, as the CI
   daemon leg does: the E14 rows of one k (every fault model and
   budget: 9 explore jobs, 7 at k=3), the CI leg's fuzz job with a
   seed-drawn seed, and a probe; about 1.2 s of daemon work whatever
   the k.  The probe goes first, so that its retry backoff overlaps
   the sweep's other jobs and does not add to its latency by chance of
   the order; the seed shuffles the rest.  Smoke: two cells, one short
   fuzz job, one probe. *)
let sweep profile r ~k =
  let fuzz trials = (fuzz_job ~seed:(Rng.int r 1_000_000_000) ~trials, [ "clean" ]) in
  let cells, fuzzes =
    match profile with
    | Full -> (List.filter (fun c -> c.k = k) e14_cells, [ fuzz 5_000 ])
    | Smoke -> ([ { model = "crash"; k = 1; t = 0 }; { model = "byzantine"; k = 1; t = 1 } ], [ fuzz 200 ])
  in
  List.map
    (fun (spec, expect) -> { spec; expect })
    ((probe_job, [ "ok" ])
    :: Rng.shuffle r (List.map (fun c -> (explore_job c, explore_expect c)) cells @ fuzzes))

(* A run's sweeps: one per 1.25 s of [seconds] (at least one), k = 1,
   2, 3 in turn, each sent to a freshly started daemon.  Many short
   sweeps, each with its own speed reading, give a steadier median
   than a few long ones, whose reading may catch or miss a burst of
   the machine's; a daemon each gives a median, too, for the daemon's
   peak memory, which moves by a tenth from one daemon to the next
   with where its major collections fall. *)
let sweeps profile ~seed ~seconds =
  let r = Rng.derive seed [ 5 ] in
  let count = match profile with Full -> max 1 (int_of_float (seconds /. 1.25)) | Smoke -> 1 in
  List.init count (fun i -> sweep profile r ~k:(1 + (i mod 3)))

(* ---------- printing ---------- *)

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let policy_name = function
  | Explorer.Per_sender -> "per-sender"
  | Explorer.Empty_or_all -> "empty-or-all"
  | Explorer.All_subsets -> "all-subsets"

let pp_cell c =
  Printf.sprintf "n=%d t=%d k=%d L=%d %s %s inputs=[%s]" c.n c.t c.k (cell_l c)
    (policy_name c.policy)
    (Canon.reduction_to_string c.reduction)
    (ints c.inputs)

(* The inputs of the first [passes] passes; pass p of a run draws
   exactly these whatever the run length. *)
let print_inputs oc profile w ~seed ~seconds ~passes =
  let p fmt = Printf.fprintf oc fmt in
  p "workload %s seed %d\n" (name w) seed;
  for pass = 0 to passes - 1 do
    match w with
    | Border_seq | Border_par2 ->
        List.iteri
          (fun i c -> p "pass %d cell %d: %s\n" pass i (pp_cell c))
          (cells profile ~seed ~pass)
    | Explore_ckpt ->
        let c = ckpt profile ~seed ~pass in
        p
          "pass %d: n=%d L=%d k=%d per-sender none max_configs=%d every_items=%d \
           restarts=%d inputs=[%s]\n"
          pass c.c_n c.c_l c.c_k c.max_configs c.every_items c.restarts (ints c.c_inputs)
    | Fuzz_hunt ->
        let f = fuzz profile ~seed ~pass in
        List.iteri
          (fun i h ->
            p "pass %d hunt %d: n=%d L=%d k=%d cap=%d seeds=%s inputs=[%s]\n" pass
              i f.h_n f.h_l f.h_k f.h_cap (ints (Array.of_list h.h_seeds)) (ints h.h_inputs))
          f.hunts;
        List.iteri
          (fun i c ->
            p "pass %d clean %d: n=%d L=%d k=%d max_crashes=%d trials=%d seed=%d inputs=[%s]\n"
              pass i f.clean_n f.clean_l f.clean_k f.clean_crashes f.clean_trials c.p_seed
              (ints c.p_inputs))
          f.clean;
        List.iteri
          (fun i c ->
            p "pass %d coverage %d: n=%d L=%d k=%d trials=%d seed=%d inputs=[%s]\n" pass i
              f.clean_n f.clean_l f.clean_k f.cov_trials c.p_seed (ints c.p_inputs))
          f.cov
    | Serve_sweep ->
        if pass = 0 then
          List.iteri
            (fun w jobs ->
              List.iteri
                (fun i j ->
                  p "sweep %d job %d expect %s: %s\n" w i (String.concat "|" j.expect)
                    (J.to_string j.spec))
                jobs)
            (sweeps profile ~seed ~seconds)
  done
