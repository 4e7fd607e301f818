(** Global structural interning of values to dense integer ids.

    A registry maps values to small integers such that two values
    receive the same id {e iff} they are structurally equal
    ([compare a b = 0]) — the table resolves hash collisions with
    [compare], so id equality is exact, never "up to hash collision".
    Interned ids are the currency of the unified trace layer: every
    substrate (the asynchronous engine, the Heard-Of engine) interns
    local states into the same registry, which makes ids comparable
    across engine functor instances, across substrates, and across
    domains.

    Lookups hash the whole value ({!hash}, the runtime's full-depth
    traversal) before touching the table.  A hit is served without a
    lock and without allocating; only the insertion of a value not
    seen before takes the registry's mutex.

    The registry is intentionally type-agnostic: values of different
    types that happen to share a runtime representation receive the
    same id.  This mirrors the equality that [Marshal]-based
    fingerprints used to provide, and is harmless for the trace
    layer, which only ever compares ids of values produced by the
    same (or structurally compatible) state machines.

    Requirements on interned values (the same ones [Marshal] imposed):
    they must be immutable, acyclic, closure-free data.  Interning
    retains one representative per distinct value for the lifetime of
    the program. *)

type t
(** An interning registry. *)

val hash : 'a -> int
(** The hash a registry files a value under:
    [Hashtbl.hash_param 256 256], the deepest traversal the runtime
    allows.  Values equal under [compare] hash equally. *)

val create : ?name:string -> ?size:int -> unit -> t
(** A fresh registry ([size] is the initial number of table slots,
    rounded up to a power of two; the table doubles whenever it would
    become more than half full).  When [name] is given, the registry's
    occupancy is published as the {!Metrics} probe ["<name>.size"], so
    snapshots report table growth without touching the interning hot
    path. *)

val id : t -> 'a -> int
(** [id t v] is the dense id of [v] in [t], allocating the next id on
    first sight.  Ids count up from 0 in first-interning order.
    Thread-safe: a value already interned is found without taking the
    registry's mutex; a first sight takes it to assign the id. *)

val count : t -> int
(** Number of distinct values interned so far, read under the
    registry's mutex. *)

val watermark : t -> int
(** A lock-free monotone lower bound on {!count}: the same counter,
    read without taking the registry's mutex.  It may therefore lag
    concurrent insertions, but it never overshoots and never
    decreases — exactly what callers need for cheap capacity hints
    (e.g. sizing a coverage bitmap over state ids). *)

val dump : t -> Obj.t array
(** The current id assignment, as an array whose index [i] holds the
    value interned under id [i].  Together with {!restore} this makes
    registries checkpointable: interned ids appear inside engine
    configurations and dedup keys, so a campaign snapshot must carry
    the assignment that produced it. *)

val restore : t -> Obj.t array -> (unit, string) result
(** Re-establish a dumped assignment.  Succeeds when the registry is
    a prefix-consistent extension point for the dump: each dumped
    value is either already interned under its dumped id (in-process
    resume) or absent with exactly that id next to be assigned
    (fresh-process resume).  Any conflicting assignment yields
    [Error] — proceeding would let equal ids denote different
    values.  Values interned after a successful restore extend the
    dumped id space as usual. *)

val states : t
(** The shared registry for local {e states} of simulated processes —
    used by {!Ksa_sim.Engine}, {!Ksa_ho.Engine} and anything else
    producing {!Ksa_sim.Trace.t} values, so that state ids agree
    across substrates. *)

val payloads : t
(** The shared registry for message {e payloads} (kept separate from
    {!states} so both id spaces stay dense). *)
