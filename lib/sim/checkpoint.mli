(** Durable campaign checkpoints: periodic snapshots of explorer and
    fuzzer state, written crash-safely, validated on load, and
    carrying everything a resumed campaign needs to report
    bit-identical verdicts and stats.

    A checkpoint file is one {!Ksa_prim.Durable} framed record (magic
    ["KSACKPT1"], CRC-32 over the body).  The body holds the campaign
    {e kind} (["explore"], ["explore-crash"], ["fuzz"]), a caller
    {e fingerprint} of the campaign parameters, the worker-error
    {e ledger}, dumps of both global interner registries, and the
    driver's opaque marshalled payload.  Interner dumps matter
    because configurations and dedup keys embed interned ids: resume
    first re-establishes the dumped id assignment
    ({!restore_interners}), then hands the payload back to the same
    driver.

    Loading never raises: truncation, bit flips, a wrong magic or an
    unsupported version each yield an [Error] naming the path, and
    callers fall back to a fresh campaign. *)

type policy = {
  every_items : int;  (** write after this many new work items … *)
  every_seconds : float;  (** … or after this much monotonic time *)
}

val default_policy : policy
(** Time-based: every 5 seconds, no item threshold. *)

type sink = {
  path : string;
  kind : string;
  fingerprint : string;
  policy : policy;
}
(** Where and how a campaign checkpoints.  [fingerprint] should
    encode every parameter that shapes the search (algorithm, n, k,
    budgets, seed, policy…): resume refuses a checkpoint whose
    fingerprint differs, since its state describes a different
    campaign. *)

type ledger_entry = {
  worker : int;  (** worker (domain) index within the campaign *)
  error : string;  (** the caught exception, printed *)
  requeued : int;  (** work items handed back for re-execution *)
}

(** {1 Reading} *)

val version : int
(** The framed-record version this build writes and the only one
    {!load} accepts: it changes whenever a payload's marshalled
    layout does. *)

type t
(** A loaded checkpoint. *)

val load : path:string -> (t, string) result
val kind : t -> string
val fingerprint : t -> string
val ledger : t -> ledger_entry list
val payload : t -> string

val warn_mismatch : flag:string -> want:string -> got:string -> unit
(** Say on stderr that a payload written under [flag got] (a
    [--reduction], [--model] or engine other than this campaign's
    [want]) describes a different search, so the driver starts a fresh
    campaign instead of resuming it. *)

val restore_interners : t -> (unit, string) result
(** Re-establish the dumped interner id assignment in this process —
    call before unmarshalling the payload.  Succeeds in a fresh
    process (ids re-assigned in dump order) and in the writing
    process (assignment already in force); an incompatible live
    assignment is an [Error]. *)

(** {1 Writing: the campaign-side controller}

    One [ctl] accompanies one campaign run.  Drivers call {!tick} at
    safepoints with an item count and a snapshot thunk; the thunk is
    only evaluated when the sink's policy says a write is due.  All
    operations are thread-safe. *)

type ctl

val ctl :
  ?sink:sink ->
  ?interrupt:(unit -> bool) ->
  ?ledger:ledger_entry list ->
  unit ->
  ctl
(** [sink] absent → {!tick}/{!flush} are no-ops; [interrupt] absent →
    {!interrupted} is always false.  [ledger] seeds the error ledger
    (carried over from a resumed checkpoint). *)

val engaged : ctl -> bool
(** Whether the controller can ever act (has a sink or an interrupt
    poll) — parallel drivers skip their coordination machinery
    otherwise. *)

val interrupted : ctl -> bool
(** Polls the interrupt; latches on first [true]. *)

val due : ctl -> items:int -> bool
(** Whether {!tick} would write now — lets parallel drivers pause
    workers only when a write will actually happen. *)

val tick : ctl -> items:int -> (unit -> string) -> unit
(** Write a checkpoint if the policy thresholds are met.  Write
    failures are reported on stderr, never raised: a failing
    checkpoint must not abort the campaign it protects. *)

val flush : ctl -> (unit -> string) -> unit
(** Unconditional write (used for the final checkpoint on
    interruption), same error containment as {!tick}. *)

val note_failure : ctl -> worker:int -> error:string -> requeued:int -> unit
(** Record a supervised worker failure in the ledger and the
    [campaign.worker.failures] / [campaign.requeues] metrics. *)

val ledger_of : ctl -> ledger_entry list
(** Current ledger, oldest first. *)
