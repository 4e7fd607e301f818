(** Lock-free instrumentation for the exploration stack.

    A process-global registry of named instruments:

    - {e counters} — monotonic event counts (configurations admitted,
      memo hits, …).  Increments are wait-free: each counter is
      sharded over a small array of atomics indexed by the calling
      domain, so hot-path increments from concurrent explorer domains
      never contend on one cache line; reads sum the shards.
    - {e gauges} — last-written or high-watermark values (frontier
      peak, configs-visited of the last completed exploration, …).
    - {e timers} — accumulated monotonic-clock nanoseconds (see
      {!Clock.now_ns}) plus a call count, for coarse phase timing
      (screening portfolio, explorer workers); derive throughput as
      [counter / (timer_ns / 1e9)].
    - {e probes} — lazy gauges: a named closure evaluated only at
      snapshot time, used for occupancy of structures that already
      know their size (the interner tables).

    Instruments are created once (typically at module initialisation)
    and looked up by name: creating an instrument with an existing
    name returns the existing one, so independent modules can share a
    series.  Creation takes a mutex; {e use} of counters, gauges and
    timers is lock-free.

    Everything is always on.  The per-event cost is one or two
    sharded atomic increments, measured in EXPERIMENTS.md at well
    under the noise floor of the bench subjects. *)

type counter
type gauge
type timer

val counter : string -> counter
(** The counter registered under this name (created at zero on first
    use).  Raises [Invalid_argument] if the name is already bound to
    a different instrument kind. *)

val incr : counter -> unit
(** Add one.  Wait-free. *)

val add : counter -> int -> unit
(** Add an arbitrary (possibly large) delta.  Wait-free. *)

val value : counter -> int
(** Sum of all shards — a consistent-enough read for reporting: each
    shard is read atomically, concurrent increments may or may not be
    included. *)

val gauge : string -> gauge
val gauge_set : gauge -> int -> unit
val gauge_max : gauge -> int -> unit
(** [gauge_max g v] raises the gauge to [v] if [v] is larger — a
    lock-free high-watermark (CAS loop, no-op fast path once
    saturated). *)

val gauge_value : gauge -> int

val timer : string -> timer

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk, accumulating its monotonic duration into the
    timer (exceptions still accumulate the partial duration). *)

val timer_ns : timer -> int
(** Accumulated nanoseconds. *)

val probe : string -> (unit -> int) -> unit
(** Register a lazy gauge evaluated at {!snapshot} time.  Re-registering
    a name replaces the closure. *)

type snapshot = (string * int) list
(** Name-sorted instrument values.  Timers appear twice, as
    ["<name>.ns"] and ["<name>.calls"]. *)

val snapshot : unit -> snapshot

val delta : before:snapshot -> after:snapshot -> snapshot
(** Per-name [after - before] (names missing from [before] count as
    zero).  Meaningful for counters and timers; gauges and probes
    subtract like everything else — interpret those with care. *)

val to_json : snapshot -> string
(** One flat JSON object, names as keys, values as integers. *)

val write_json : path:string -> snapshot -> (unit, string) result
(** Atomically write the snapshot as JSON via {!Durable.write_atomic};
    an unwritable path is an [Error] naming it, never an exception. *)

val reset : unit -> unit
(** Zero every counter, gauge and timer (probes are left alone: they
    reflect external state).  Test-harness affordance; concurrent
    increments during a reset may survive it. *)
