(** In-flight messages.

    The paper models communication as one buffer per process holding
    messages sent but not yet received.  We tag every sent message
    with a globally unique id so that schedules ("deliver message m to
    p now") are plain data and runs can be replayed and spliced. *)

type 'payload t = {
  id : int;  (** Unique within a run, in sending order. *)
  src : Pid.t;
  dst : Pid.t;
  sent_at : int;  (** Step index of the sending step. *)
  payload : 'payload;
}
