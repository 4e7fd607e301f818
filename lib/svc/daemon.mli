(** [ksa serve]: the crash-tolerant campaign daemon.

    One daemon owns one campaign directory ({!Jobstore}) and runs the
    jobs in it, one at a time, each in a worker domain, each
    checkpointed to its own file.  The event loop serves a minimal
    HTTP/1.1 JSON API ({!Http}) for submission and inspection while a
    job runs.

    Robustness contract:
    {ul
    {- {b Retry}: a failed attempt moves the job to [Failed n]; it
       becomes runnable again after a capped exponential
       {!Ksa_prim.Backoff} delay whose jitter is drawn from a
       deterministic {!Ksa_prim.Rng} seeded per (daemon seed, job id,
       attempt) — two daemons with the same seed produce the same
       schedule.  After [retry_max] failures the job is [Dead].}
    {- {b Deadline}: a per-job wall-clock budget.  Expiry interrupts
       the driver through its checkpoint controller, which flushes a
       final checkpoint; the job returns to [Queued] {e resumable} —
       progress is kept, not discarded.}
    {- {b Drain}: SIGTERM (or [POST /drain]) stops admission,
       interrupts the running job the same checkpoint-flushing way,
       requeues it resumable, persists everything and exits 0.}
    {- {b Crash}: SIGKILL needs no cooperation — every state
       transition was a {!Ksa_prim.Durable} atomic rewrite, so the
       restarted daemon adopts [Running] orphans as resumable and
       continues; verdicts are bit-identical to an uninterrupted run
       because the drivers' checkpoint/resume contract already
       guarantees it.}
    {- {b Strict resume}: the daemon never silently starts a
       checkpoint mismatch fresh.  A rejected checkpoint (corrupt,
       wrong kind or fingerprint, interner conflict from an earlier
       job in the same process) is counted ([svc.resume.rejected]),
       recorded on the job, and the attempt reruns from scratch —
       which, for these deterministic campaigns, still converges to
       the identical verdict.}}

    The HTTP API (all bodies JSON):
    {v
    GET    /health        daemon + queue summary
    GET    /jobs          all jobs
    POST   /jobs          {"spec": {...}, "deadline"?: s, "retries"?: n}
    GET    /jobs/ID       one job
    DELETE /jobs/ID       cancel (a running job is interrupted)
    POST   /drain         graceful shutdown v} *)

type cfg = {
  dir : string;  (** Campaign directory (created if missing). *)
  addr : string option;
      (** [Http] listen address; [None] = no API (run the queue to
          completion — the bench/test mode). *)
  retry : Ksa_prim.Backoff.policy;
  retry_max : int;  (** Default retry budget for submitted jobs. *)
  seed : int;  (** Root seed for backoff jitter. *)
  deadline : float option;  (** Default per-job deadline. *)
  domains : int;
      (** Driver domains per job; {!Task.run} decides how a resumed
          job uses them. *)
  exit_when_idle : bool;
      (** Exit 0 once no job is runnable or running (jobs waiting on
          a retry backoff count as runnable). *)
  ckpt_policy : Ksa_sim.Checkpoint.policy;  (** Per-job sink policy. *)
  verbose : bool;
}

val default_cfg : dir:string -> cfg
(** No listener, [Backoff.default_retry], retry budget 3, seed 1,
    no deadline, 1 domain, [exit_when_idle = false],
    [Checkpoint.default_policy], quiet. *)

val serve : cfg -> int
(** Run until drained ([SIGTERM] / [POST /drain]) or — with
    [exit_when_idle] — until the queue empties.  Returns the process
    exit code: 0 for a clean drain or idle exit, 1 for a store or
    listener error. *)
