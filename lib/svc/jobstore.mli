(** The daemon's durable job store: one {!Ksa_prim.Durable} framed
    record per job (magic ["KSAJOB01"], JSON payload), living in the
    campaign directory next to the job's checkpoint file.

    Every state transition is a full atomic rewrite of the job's
    record, so a crash at {e any} instant — enumerable and provable
    via {!Ksa_prim.Faultsim} — leaves the record at the old state or
    the new state, both of which are valid resumption points of the
    job state machine:

    {v Queued -> Running -> Done
                    |-> Queued        (deadline / drain requeue)
                    |-> Failed(n)     (retriable; backs off, -> Queued)
                    |-> Dead          (retries exhausted / cancelled) v}

    A [Running] record found on open is an orphan — its daemon died
    without transitioning it — and is adopted back to [Queued] with
    [resumable] set, so its next attempt resumes from the checkpoint
    the dead daemon flushed.

    In-memory bookkeeping (retry eligibility times) is deliberately
    not persisted: after a restart every [Queued]/[Failed] job is
    immediately eligible, which only ever retries {e sooner} than the
    in-process schedule would have. *)

type state = Queued | Running | Done | Failed of int | Dead

type job = {
  id : int;
  spec : Task.spec;
  state : state;
  attempts : int;  (** Execution attempts completed (with any outcome). *)
  requeues : int;  (** Deadline/drain checkpoint-and-requeue count. *)
  deadline : float option;  (** Per-attempt wall-clock budget, seconds. *)
  retry_max : int;  (** Failed attempts allowed before [Dead]. *)
  resumable : bool;  (** Next attempt should resume the checkpoint. *)
  result : Task.summary option;  (** Set iff [Done]: every result line. *)
  error : string option;  (** Last failure / cancellation reason. *)
}

val ckpt_path : dir:string -> int -> string
(** The job's checkpoint file ([job-NNNNNN.ckpt] in [dir]) — fixed
    for the job's whole life, so resume needs no extra bookkeeping. *)

type t

val open_dir : dir:string -> (t, string) result
(** Create [dir] if needed, scan it for job records (skipping — with
    a stderr warning — any that fail CRC or parse: a torn temp file
    must not block the store), adopt [Running] orphans back to
    [Queued resumable] durably, and return the store.  [next id] is
    one past the highest id seen. *)

val dir : t -> string
val submit : t -> ?deadline:float -> ?retry_max:int -> Task.spec -> (job, string) result
val get : t -> int -> job option
val list : t -> job list
(** Ascending id order. *)

val update : t -> job -> (unit, string) result
(** Durably rewrite the job's record and the in-memory view.  The
    record on disk is the truth: if the write fails the in-memory
    view is {e not} changed. *)

val job_to_json : job -> Json.t
val job_of_json : Json.t -> (job, string) result
