(** The parametrized system models of Dolev, Dwork and Stockmeyer
    ([11]), plus the paper's 6th dimension.

    Section II of the paper adopts the DDS model of computation: 32
    models obtained by choosing each of 5 parameters either
    favourably (F) or unfavourably (U) for the algorithm, extended
    with a 6th dimension for failure detectors.  A model is a
    predicate on runs; this module fixes the parameter space and
    {!Model_check} decides admissibility of a concrete run.

    The engine itself always produces runs of the weakest (all-U,
    except atomic steps) model; stronger models are obtained by
    restricting the adversary (e.g. {!Adversary.round_robin} produces
    lock-step-synchronous processes) and {e checked} after the fact.
    That separation mirrors the paper: Theorem 2 proves impossibility
    in a strong model by exhibiting runs that are admissible even
    under synchronous processes and atomic broadcast. *)

type process_sync =
  | Async_processes
      (** No bound on relative speeds (unfavourable). *)
  | Sync_processes of int
      (** [Sync_processes phi]: in every window of [phi] consecutive
          steps of the run, every process alive throughout the window
          takes at least one step (favourable). *)

type comm_sync =
  | Async_comm  (** Unbounded message delay (unfavourable). *)
  | Sync_comm of int
      (** [Sync_comm delta]: every message to an alive receiver is
          delivered within [delta] steps of being sent (favourable). *)

type order =
  | Unordered  (** Messages may be received in any order (unfavourable). *)
  | Fifo
      (** Per-channel FIFO: messages from p to q are received in the
          order sent (favourable). *)

type transmission =
  | Unicast  (** A step sends at most one message (unfavourable). *)
  | Broadcast
      (** A step's sends are either empty or address every other
          process (atomic broadcast, favourable). *)

type atomicity =
  | Separate
      (** A step may receive or send, not both (unfavourable). *)
  | Atomic_receive_send  (** Receive + send in one atomic step (favourable). *)

type fd_dim = No_fd | With_fd  (** The paper's 6th dimension. *)

type t = {
  processes : process_sync;
  communication : comm_sync;
  order : order;
  transmission : transmission;
  atomicity : atomicity;
  fd : fd_dim;
}

val masync : t
(** M{_ASYNC}, the FLP model: everything asynchronous/unfavourable
    except that steps are atomic (receive a subset, then send) and
    broadcast is allowed — matching the paper's Section II setup. *)

val theorem2 : n:int -> t
(** The strong model of Theorem 2: synchronous processes (Φ = n —
    realized exactly by a round-robin schedule), asynchronous
    communication, atomic one-step broadcast, receive+send atomic,
    no failure detector. *)

val strongest : n:int -> delta:int -> t
(** All five parameters favourable. *)

val pp : Format.formatter -> t -> unit
