(** A campaign's lifecycle, shared by the CLI and the campaign daemon.

    A {e spec} describes a campaign; [kind]/[fingerprint] derive the
    checkpoint identity the CLI has always written ({e byte-identical}
    formats — existing checkpoint files keep resuming);
    [open_campaign] builds its checkpoint sink and takes up or refuses
    (by name) its resume checkpoint; [run] executes it (spec in,
    checkpoint in/out, outcome out); and [summarize] maps every
    outcome to the lines it prints and its exit code.

    Every spec field is declared once, in one table ({!field}):
    [spec_of_json] reads specs through it and is their one
    constructor and validator, and the CLI builds its explore and fuzz
    flags from it — so a flag and its job-spec key cannot drift apart.

    The CLI is a thin client: it reads flags into a spec, opens and
    runs it (or [replay]s a schedule), and prints the summary's lines;
    the daemon opens and runs its jobs the same way and stores the
    same summary in its job records, so the two cannot word a result
    differently.  A [Probe] task rides along — a trivially cheap,
    deterministic task that fails its first [fail] attempts — so the
    daemon's retry, backoff and throughput paths can be exercised
    without spinning up a real search. *)

type explore_spec = {
  e_algo : string;
  e_n : int;
  e_k : int;
  e_l : int option;  (** [None] = the CLI default, [max 1 (n-1)]. *)
  e_wait : int;
  e_dead : int list;
  e_crash_budget : int;
  e_model : Ksa_sim.Fault_model.t;
  e_policy : string;  (** per-sender | empty-or-all | all-subsets *)
  e_reduction : Ksa_sim.Canon.reduction;
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
  f_weights : string;  (** mixed | fair *)
  f_termination : bool;
  f_coverage : bool;
  f_model : Ksa_sim.Fault_model.t;
}

type probe_spec = {
  p_fail : int;  (** Raise on attempts [0 .. p_fail - 1]. *)
  p_spin : float;  (** Interruptible busy-sleep, seconds. *)
}

type spec =
  | Explore of explore_spec
  | Fuzz of fuzz_spec
  | Probe of probe_spec

val kind : spec -> string
(** Checkpoint kind tag: ["explore"], ["explore-crash"] (when the
    crash budget or a non-crash model makes the resilient driver
    run), ["fuzz"], or ["probe"]. *)

val fingerprint : spec -> string
(** The campaign-parameter fingerprint, byte-identical to what the
    CLI has always written into checkpoints for the same
    parameters. *)

(** {1 The spec table} *)

type shape = Int | String | Bool | Ints | Float

type field = {
  key : string;  (** The JSON key. *)
  flags : string list;  (** Command-line names, aliases included. *)
  docv : string;
  doc : string;  (** The [--help] text. *)
  shape : shape;
  default : Json.t option;
      (** [None] for [l] (then [max 1 (n-1)]) and [max-configs]. *)
}

(** The entries the non-campaign commands share. *)
module Fields : sig
  val algo : field
  val n : field
  val k : field
  val l : field
  val wait : field
  val dead : field
  val model : field
  val seed : field
end

val explore_fields : field list
val fuzz_fields : field list

val read_int : Json.t -> field -> int
val read_string : Json.t -> field -> string
val read_ints : Json.t -> field -> int list
(** A field's value in a JSON object, or its default; raises
    [Invalid_argument] for a field with neither. *)

val algo_conv :
  n:int ->
  l:int ->
  wait_for:int ->
  string ->
  ((module Ksa_sim.Algorithm.S), string) result
(** The algorithm of a name at [n] processes: [kset-flp] (waiting for
    [l] reports), [naive-min] (waiting for [wait_for]), [trivial] or
    [synod].  [kset-flp] with [l], and [naive-min] with [wait_for],
    outside [1..n] are [Error]s naming the field. *)

val spec_to_json : spec -> Json.t
val spec_of_json : Json.t -> (spec, string) result
(** Wire/disk codec.  [spec_of_json] is the one constructor and
    validator of specs: absent keys take the table defaults, and an
    unknown key (["unknown field \"trails\" for task fuzz"]), an
    unknown name, a fuzz spec of a failure-detector algorithm, and a
    value out of range ([n] or [k] below 1, [l] or [wait] outside
    [1..n] for the algorithm that reads it, fuzz dead pids out of
    range or repeated, a negative budget) are [Error]s naming the
    field — a submitted job fails at submission, not at execution. *)

type campaign = {
  ckpt : Ksa_sim.Checkpoint.ctl;
      (** Sink, interrupt and carried-over ledger: {!run}'s [ckpt]. *)
  payload : string option;  (** The resumed payload: {!run}'s [resume]. *)
  rejected : string option;  (** Why [resume] was refused; then fresh. *)
}

val open_campaign :
  ?checkpoint:string ->
  ?policy:Ksa_sim.Checkpoint.policy ->
  ?resume:string ->
  interrupt:(unit -> bool) ->
  spec ->
  campaign
(** Open a campaign of [spec]: checkpoint it to [checkpoint] at
    [policy] (default {!Ksa_sim.Checkpoint.default_policy}) under its
    {!kind} and {!fingerprint}, and resume it from [resume] when that
    checkpoint loads, matches both, and its interner dumps restore.
    Otherwise [rejected] names why, as the CLI has always worded it
    (["cannot resume: ..."], ["... is a ... checkpoint, not ..."],
    ["... was written under different campaign parameters"]); the
    caller warns and runs fresh, or refuses the campaign.  [interrupt]
    is the one early stop — a signal, a drain, a cancel or a
    wall-clock budget folded into one poll: the driver flushes a final
    checkpoint and returns a truncated outcome. *)

type outcome =
  | Explored of Ksa_sim.Explorer.outcome
  | Crash_explored of Ksa_sim.Explorer.resilient_outcome
  | Fuzzed of (Ksa_sim.Fuzz.outcome * Ksa_sim.Fuzz.coverage_summary option)
      (** With the campaign's coverage at its end in coverage mode. *)
  | Replayed of {
      violation : (Ksa_sim.Fuzz.property * string) option;
          (** The first property the replayed run violates. *)
      steps : int;  (** Length of the replayed schedule. *)
    }
  | Probed of { attempt : int }

val run :
  ?attempt:int ->
  ?domains:int ->
  ?ckpt:Ksa_sim.Checkpoint.ctl ->
  ?resume:string ->
  spec ->
  (outcome, string) result
(** Execute the campaign.  [ckpt] and [resume] are a {!campaign}'s
    [ckpt] and [payload].  [domains] defaults to 1; the CLI passes
    its [--domains].  Every campaign resumes at [domains], whatever
    domain count wrote the checkpoint.
    [attempt] (default 0) is the retry ordinal, consumed by [Probe].
    Errors: unknown algorithm names, an [l] or [wait] outside [1..n]
    for the algorithm that reads it, a fuzz campaign of an algorithm
    that queries a failure detector (fuzz trials supply none),
    unexplorable parameter
    combinations ({!Sim.Explorer.Not_explorable}, or an initially-dead
    pid the failure pattern refuses, reported as
    ["not explorable: ..."]).  Other exceptions, an internal
    [Invalid_argument] included, propagate — the daemon supervises
    them as job failures. *)

val replay : path:string -> fuzz_spec -> (outcome, string) result
(** Re-run the schedule saved at [path] (by [ksa fuzz --save-schedule]
    or [ksa simulate --save-schedule]) under the config [run] builds
    for the same spec, and check the spec's properties on it: a
    [Replayed] outcome.  Errors: unknown algorithm or weights names,
    an unreadable or malformed schedule, a schedule recorded under
    another fault model than the spec's, and a schedule the replay
    cannot take to its end (["replay: step i: ..."], see
    {!Ksa_sim.Replay.strict}): a short run is never judged. *)

type summary = {
  verdict : string;
      (** safe | violation | stuck | indeterminate | all-paths-decide
          | clean | budget-exhausted | ok *)
  exit_code : int;
      (** 0 nothing found, 2 a violation, 3 a stuck configuration, 4 a
          budget cut the search short. *)
  detail : string;
      (** The verdict line, e.g.
          ["SAFE: 4930 configs visited, 601 terminal runs"]. *)
  lines : string list;
      (** Every line [ksa explore]/[ksa fuzz] print: [detail], then for
          a fuzz campaign the coverage line of coverage mode and the
          counterexample's schedule line — all but [--save-schedule]'s
          own line. *)
  items : int;  (** Configurations visited or trials completed. *)
}

val summarize : outcome -> summary
(** The one outcome → (lines, exit code) map, shared by the CLI and
    the daemon's job records. *)

val summary_to_json : summary -> Json.t
val summary_of_json : Json.t -> (summary, string) result
(** A record written before summaries held their [lines] loads with
    [detail] as its one line; [lines] that do not start with [detail]
    are refused. *)
