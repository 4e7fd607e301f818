(** Reduction layer: symmetry orbit keys.

    Pure integer/array arithmetic over the interned rows of a
    configuration — no dependency on any algorithm.  The engine writes
    a configuration's pending triples into {!triple_slots} and calls
    {!write_key}, which writes exact and orbit keys into the calling
    domain's {!key_buffer}; {!key} does the same from a {!rows} record,
    and {!canonicalize} + {!serialize} are the reference both are
    tested against. *)

(** How aggressively the explorers collapse the state space.

    - [No_reduction]: exact keys — every distinct interned
      configuration is admitted separately (the pre-reduction
      behaviour).
    - [Symmetry]: orbit keys — configurations equal up to relabelling
      of {e movable} processes (crashed, no observable pending
      message) share one key, crashed processes' inert local states
      and undeliverable inbound messages are elided, and the
      algorithm's [canon]/[canon_message] hooks normalize local state
      and payload representations as they are produced. *)
type reduction = No_reduction | Symmetry

val reduction_to_string : reduction -> string
val reduction_of_string : string -> (reduction, string) result
(** ["none"] or ["sym"].  The removed sleep-set mode is refused with
    an [Error] that names it. *)

(** {1 Packed pending triples}

    A pending message packs into one int: src in bits 51..61, dst in
    bits 40..50, payload id in bits 0..39. *)

val pack_triple : int -> int -> int -> int
val triple_src : int -> int
val triple_dst : int -> int
val triple_payload : int -> int

val triple_content : int -> int
(** [(src, payload)] with the destination dropped: the content
    signature of one delivered message, stable across message-id
    renumbering. *)

(** {1 Process-permutation symmetry} *)

(** The interned rows of a configuration under a crashed-set mask.
    ['d] is the caller's shape of a decided output ({!key} takes the
    projection to its value).  The input of {!key} and of the
    reference orbit representative below; the engine writes its keys
    through {!write_key} without building one. *)
type 'd rows = {
  n : int;
  crashed : int;  (** bitmask of crashed pids *)
  state_ids : int array;  (** interned local-state id per pid *)
  decided : 'd option array;  (** decided output per pid *)
  triples : int array;  (** packed (src, dst, payload) triples, any order *)
}

(** {2 Dedup keys}

    The dedup key of a configuration is an int sequence written as
    zigzag LEB128 varints.  A pending triple enters the sequence
    re-packed as the small int [(payload * n + src) * n + dst].

    - [No_reduction]: the exact key — crashed mask; state id per pid;
      number of decided pids; a (pid, value) pair per decided pid,
      pid-ascending; number of pending triples; the triples, sorted.
      Equal iff the rows are equal up to the order of the triples.
    - [Symmetry]: the orbit key, byte-identical to
      [serialize ~crashed (canonicalize rows)] with the values
      projected.

    Keys of one [n] are prefix-free: every slice follows its count,
    and the exact key's leading crashed mask encodes to an even first
    byte while the orbit key's leading tag [-1] encodes to [0x01].
    Checkpoints store keys, so both layouts are fixed: the
    test suite pins them with golden bytes. *)

val triple_slots : n:int -> m:int -> int array
(** The calling domain's scratch int array, grown to at least [n + m]
    ints.  {!write_key} reads the [m] packed pending triples of an
    [n]-process configuration from its slots [n .. n + m - 1], in any
    order, and overwrites the whole array. *)

val write_key :
  reduction:reduction ->
  value:('d -> int) ->
  n:int ->
  crashed:int ->
  state_ids:int array ->
  decided:'d option array ->
  m:int ->
  int
(** Writes the key of the configuration with these rows and the [m]
    triples in {!triple_slots} at the start of {!key_buffer}, and
    returns its length.  Allocates nothing (the buffer grows, once, for
    a configuration larger than any before it).  [value] projects a
    decided output to its value; it runs while the key is half
    written, so it must not write keys itself. *)

val key_buffer : unit -> Bytes.t
(** The calling domain's scratch buffer, holding the key written
    last.  Fetch it after writing: growing replaces it. *)

val key : reduction:reduction -> value:('d -> int) -> 'd rows -> string
(** {!write_key} over the rows, copied out of the buffer. *)

val sort_slots : int array -> int -> int -> unit
(** [sort_slots a lo hi] sorts [a.(lo) .. a.(hi - 1)] ascending in
    place: an insertion sort for the handful of ints of one key slice
    or one delivered batch.  Allocates nothing. *)

(** {2 Reference orbit representative}

    The orbit representative spelled out as a value.  Not used to
    build keys; it states what {!key} computes, and the test suite
    checks the two agree. *)

val movable : 'd rows -> int list
(** Crashed pids with no pending live-destination message naming them
    as source: nothing about their identity is observable any more
    except their decided output, so they may be relabelled freely
    among themselves. *)

(** The orbit-representative core of a configuration. *)
type canonical = {
  retained : int array;
      (** sorted pending triples with a live destination *)
  row_ids : int array;  (** state id per pid, [-1] for crashed pids *)
  fixed_decided : (int * int) list;
      (** (pid, value) outputs of non-movable pids, pid-ascending *)
  movable_decided : int list;
      (** sorted value multiset of the movable pids' outputs *)
  movable_pids : int list;  (** the movable pids, ascending *)
  perm : int array;
      (** witnessing permutation: [perm.(p)] is the slot pid [p]
          occupies in the representative; identity outside the movable
          set *)
}

val permute_rows : int array -> 'd rows -> 'd rows
(** [permute_rows perm rows] relabels every pid [p] as [perm.(p)] in
    the crashed mask, state rows, decided rows and triples. *)

val canonicalize : int rows -> canonical
(** Orbit representative + witness.  Sound by construction: only
    movable pids are reordered, and only their (pid ↛ value) binding
    is forgotten — the k-agreement oracle is invariant under it. *)

val canonical_equal : canonical -> canonical -> bool
(** Equality of the representative cores (the witness [perm] is not
    compared — orbit-equal inputs produce different witnesses). *)

val serialize : crashed:int -> canonical -> string
(** Exact serialization of the core in {!key}'s orbit layout, by a
    writer of its own; equal iff {!canonical_equal}.  The leading tag
    keeps reduced keys disjoint from unreduced ones. *)
