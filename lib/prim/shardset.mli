(** Sharded concurrent insert-only map over packed string keys.

    The dedup structure of the parallel explorers: every domain admits
    configurations against {e one} shared table instead of a private
    copy, so a configuration reached from two sides of the schedule
    space is expanded exactly once.  Keys are the explorer's packed
    configuration keys — non-empty strings compared bytewise — and the
    payload is the node's dense id.  Under a symmetry reduction the
    admitted keys are {e orbit} keys ({!Ksa_sim.Canon}): one key per
    equivalence class of configurations rather than per configuration,
    possibly extended with a sleep-set digest.  Nothing here changes —
    the table is agnostic to what a key denotes, and tickets stay
    dense either way — but consumers must not assume one key maps to
    one concrete configuration.

    The table owns its hash, a multiply-xorshift over a key's 8-byte
    words: every entry point hashes the same bytes the same way,
    whether they come as a string or as the start of a scratch buffer
    ({!admit_bytes}, {!mem_bytes}), and a resize rehashes the stored
    strings with it.  So a caller can probe with a key it has not
    copied out yet: a hit through {!admit_bytes} or {!mem_bytes}
    allocates nothing, and an insert copies the key out once.  The
    string entry points allocate only their answers ({!admit}'s boxed
    [admission], {!find}'s option) and, in {!admit}, the adapter of
    the optional ticket.

    Layout: a power-of-two number of shards selected by the low bits
    of the key hash; each shard is an open-addressed (linear-probe)
    table guarded by its own mutex, kept under a fixed load factor and
    doubled in place under that lock when full.  With the default 64
    shards, eight explorer domains collide on a shard lock only a few
    percent of the time, and the critical section is a handful of
    probes — the structure is bound by memory bandwidth, not locking.
    Deletion is not supported (the explorers only ever admit), which
    is what makes the concurrent membership answers stable: a key seen
    present stays present.

    {!mem} and {!mem_bytes} have an optimistic lock-free fast path: they
    probe a published table snapshot without taking the shard lock
    and only fall back to the locked (authoritative) probe on a miss.
    This is sound precisely because the structure is insert-only and a
    slot's value is written before its key is published — a racy read
    that finds the key found a completed insert.

    Instrumentation, via {!Metrics}: counters
    [shardset.<name>.collisions] (insert probe displacements) and
    [shardset.<name>.resizes] tick live; occupancy series are
    published as gauges by {!publish_metrics} at quiescent points
    (gauges, not probes, so a benchmark's per-subject
    [Metrics.reset]/delta discipline sees non-negative values). *)

type t

val create : ?shards:int -> ?capacity:int -> name:string -> unit -> t
(** [create ~name ()] makes an empty map.  [shards] (default 64) is
    rounded up to a power of two; [capacity] (default 65_536) is the
    initial total slot count, divided across shards.  [name] prefixes
    the metrics series; instruments are shared across instances of the
    same name. *)

val refused : int
(** The answer of {!admit_bytes} and {!admit_key} when the ticket
    source declined. *)

val admit_bytes : t -> Bytes.t -> int -> ticket:(unit -> int) -> int
(** [admit_bytes t b len ~ticket] is the explorers' check-then-admit
    step for the key held by the first [len] bytes of [b], atomic under
    the key's shard lock: if the key is present, its value [v] (the
    stored values must be non-negative) without consuming a ticket;
    otherwise call [ticket ()] and either insert the key under the
    returned value [v >= 0] and answer [lnot v] (negative), or, on a
    negative ticket, leave the map unchanged and answer {!refused}.
    Atomicity is what makes budget accounting exact — two domains
    racing on the same key cannot both consume a ticket for it.
    [ticket] runs under the shard lock: it must be quick and must not
    touch this map.  Only an insert allocates: it copies the key out of
    [b].  Raises [Invalid_argument] on the empty key (reserved as the
    empty-slot sentinel). *)

val admit_key : t -> string -> ticket:(unit -> int) -> int
(** {!admit_bytes} over a string, which an insert stores as is. *)

type admission =
  | Found of int  (** Key already present, with its value. *)
  | Admitted of int  (** Key inserted; the value is the granted ticket. *)
  | Rejected  (** The ticket source declined — key not inserted. *)

val admit : t -> string -> ticket:(unit -> int option) -> admission
(** {!admit_key} with an optional ticket and a boxed answer.  Kept only
    for the benchmark's layer timings ([ksa_bench/layers.ml]); it goes
    with ROADMAP item 9. *)

val add : t -> string -> int -> bool
(** [add t key v] inserts [key -> v] if absent; [true] iff this call
    inserted.  ([admit] with an always-granting ticket.) *)

val mem : t -> string -> bool
(** Membership.  Lock-free when the answer is [true]; a miss confirms
    under the shard lock before answering [false]. *)

val mem_bytes : t -> Bytes.t -> int -> bool
(** {!mem} for the key held by the first [len] bytes of the buffer.
    Allocates nothing. *)

val find : t -> string -> int option
(** The value bound to the key, if present.  Takes the shard lock. *)

val length : t -> int
(** Number of keys.  Exact only at quiescence (sums per-shard counts
    without stopping concurrent inserts). *)

val iter : (string -> int -> unit) -> t -> unit
(** Iterate all bindings, shard by shard under each shard's lock.
    [f] must not reenter this map.  Consistent at quiescence; a
    concurrent insert may or may not be visited. *)

val publish_metrics : t -> unit
(** Publish occupancy gauges: [shardset.<name>.occupancy] (total
    keys), [.capacity] (total slots), [.key_bytes] (the summed length
    of the keys held — their string payloads, not the headers or the
    slot arrays), and the per-shard balance
    watermarks [.shard.occupancy.max] / [.shard.occupancy.min].
    Call at quiescent points (end of a run, inside a
    pause-the-world). *)
