(* Campaign checkpoints.

   A checkpoint file is one Durable framed record whose payload
   marshals six fields: the campaign kind, a parameter fingerprint,
   the worker-error ledger, dumps of both global interner registries,
   and an opaque driver payload (the driver's own marshalled state).

   The interner dumps are the subtle part: engine configurations and
   dedup keys embed interned state/payload ids, so a driver snapshot
   is only meaningful under the id assignment that produced it.
   [restore_interners] re-establishes that assignment before the
   driver unmarshals its payload — exactly reproducing it in a fresh
   process, and verifying it is already in force when resuming within
   the process that wrote the checkpoint.

   Verdicts and stats are invariant under id renumbering (ids never
   leave the process), so internal consistency is all resume needs:
   a resumed campaign reports bit-identical results to an
   uninterrupted one. *)

module Metrics = Ksa_prim.Metrics
module Durable = Ksa_prim.Durable
module Intern = Ksa_prim.Intern
module Clock = Ksa_prim.Clock

let magic = "KSACKPT1"

(* v2: driver payloads carry the reduction mode (and, in [explore]
   snapshots, per-item DPOR sleep sets).  v3: the sleep sets' delivery
   actions gained a [sends] destination mask and [explore] snapshots
   gained the terminal/bare dedup tables.  v4: [fuzz] payloads changed from a
   bare watermark integer to a record that also carries the greybox
   coverage state (bitmap, transition pairs, corpus, unfolded
   updates).  v5: engine configurations (inside [explore] and
   [explore-crash] snapshots) lost their pending-message map; the
   per-destination inboxes, now holding (envelope, triple) pairs, are
   the only pending index.  v6: dedup keys (in both payloads) are
   zigzag varint sequences instead of 8-byte ints; [explore-crash]
   snapshots store the keys as an id-indexed array instead of a
   key→id table, and their node records hold an int array of
   successors and an undecided-pid mask instead of lists.  v7:
   [explore] snapshots take [explore-crash]'s shape: the admitted
   keys as an id-indexed array, the terminal and bare-key sets as key
   arrays instead of three hash tables, and the keys of pending
   orphans; ids stay dense, since no ticket is refunded.  v8: both
   explorer engines write one payload record, led by the engine that
   wrote it; a crash-free configuration whose expansion failed is a
   pending admitted item instead of an orphan key.  v9: [fuzz]
   payloads lead with the engine that wrote them (["fuzz"]), as the
   explorer's do, so each driver recognises the other's payload and
   starts fresh instead of reading its fields as its own.  v10:
   explore-crash node records are byte rows (int64 masks, int32
   successor ids).  v11: under the symmetry reductions, kset-flp's and
   naive-min's [canon] rebuild their sets and maps from the bindings,
   so states that used to intern apart share one id: a v10 payload's
   orbit keys and interner dumps describe configurations this version
   merges, and resuming it would admit them again.  v12: configs
   lost their per-pid step counts, and Byzantine graphs forge at
   delivery only, so a v11 payload's nodes are the wrong shape or
   unreachable.  v13: crash-free candidates carry the admission key
   their parent probed, and the successors already admitted when they
   were generated are no longer pending.  v14: the sleep-set
   reduction is gone: crash-free candidates and held items lost their
   sleep sets and bare-key lengths, and [explore] payloads their
   terminal and bare-key sets.  Older files unmarshal into the wrong
   shapes or keys, so they are rejected by the version check and the
   CLI falls back to a fresh campaign. *)
let version = 14

let m_written = Metrics.counter "campaign.checkpoints.written"
let m_loaded = Metrics.counter "campaign.checkpoints.loaded"
let m_bytes = Metrics.counter "campaign.checkpoint.bytes"
let m_worker_failures = Metrics.counter "campaign.worker.failures"
let m_requeues = Metrics.counter "campaign.requeues"
let t_write = Metrics.timer "campaign.checkpoint.write"

type policy = { every_items : int; every_seconds : float }

let default_policy = { every_items = max_int; every_seconds = 5.0 }

type sink = {
  path : string;
  kind : string;
  fingerprint : string;
  policy : policy;
}

type ledger_entry = { worker : int; error : string; requeued : int }

type t = {
  ck_kind : string;
  ck_fingerprint : string;
  ck_ledger : ledger_entry list;
  ck_states : Obj.t array;
  ck_payloads : Obj.t array;
  ck_payload : string;
}

let kind t = t.ck_kind
let fingerprint t = t.ck_fingerprint
let ledger t = t.ck_ledger
let payload t = t.ck_payload

let load ~path =
  match Durable.read_framed ~path ~magic with
  | Error _ as e -> e
  | Ok (v, _) when v <> version ->
      Error
        (Printf.sprintf "%s: unsupported checkpoint version %d (want %d)" path
           v version)
  | Ok (_, body) -> (
      match
        (Marshal.from_string body 0
          : string
            * string
            * ledger_entry list
            * Obj.t array
            * Obj.t array
            * string)
      with
      | kind, fp, ledger, states, payloads, payload ->
          Metrics.incr m_loaded;
          Ok
            {
              ck_kind = kind;
              ck_fingerprint = fp;
              ck_ledger = ledger;
              ck_states = states;
              ck_payloads = payloads;
              ck_payload = payload;
            }
      | exception _ -> Error (path ^ ": undecodable checkpoint body"))

let warn_mismatch ~flag ~want ~got =
  Printf.eprintf
    "ksa: checkpoint was written under %s %s, not %s — starting a fresh \
     campaign\n\
     %!"
    flag got want

let restore_interners t =
  match Intern.restore Intern.states t.ck_states with
  | Error _ as e -> e
  | Ok () -> Intern.restore Intern.payloads t.ck_payloads

(* ---------- the write-side controller ---------- *)

(* One [ctl] accompanies one campaign.  It owns the periodicity
   decision ([tick] vs [flush]), the latched interrupt poll, and the
   worker-error ledger, all mutex-protected: the parallel drivers
   call in from a ticker domain and from worker supervision. *)
type ctl = {
  sink : sink option;
  interrupt : (unit -> bool) option;
  lock : Mutex.t;
  mutable latched : bool;
  mutable entries : ledger_entry list; (* newest first *)
  mutable last_ns : int;
  mutable last_items : int;
}

let ctl ?sink ?interrupt ?(ledger = []) () =
  {
    sink;
    interrupt;
    lock = Mutex.create ();
    latched = false;
    entries = List.rev ledger;
    last_ns = Clock.now_ns ();
    last_items = 0;
  }

let with_lock c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

(* [interrupted] and [tick] run once per popped item or admission of
   a one-domain explore, so they lock by hand rather than through
   [with_lock]'s closure; a raising hook or write still unlocks. *)
let interrupted c =
  match c.interrupt with
  | None -> false
  | Some f ->
      Mutex.lock c.lock;
      match
        if not c.latched then c.latched <- f ();
        c.latched
      with
      | latched ->
          Mutex.unlock c.lock;
          latched
      | exception e ->
          Mutex.unlock c.lock;
          raise e

let engaged c = c.sink <> None || c.interrupt <> None

let note_failure c ~worker ~error ~requeued =
  Metrics.incr m_worker_failures;
  Metrics.add m_requeues requeued;
  with_lock c (fun () ->
      c.entries <- { worker; error; requeued } :: c.entries)

let ledger_of c = with_lock c (fun () -> List.rev c.entries)

let write_now c sink snap =
  let body =
    Metrics.time t_write (fun () ->
        let payload = snap () in
        Marshal.to_string
          ( sink.kind,
            sink.fingerprint,
            List.rev c.entries,
            Intern.dump Intern.states,
            Intern.dump Intern.payloads,
            payload )
          [])
  in
  match Durable.write_framed ~path:sink.path ~magic ~version body with
  | Ok () ->
      Metrics.incr m_written;
      Metrics.add m_bytes (String.length body)
  | Error msg ->
      (* a failing checkpoint must not abort the campaign it exists
         to protect; the operator sees why resume will be stale *)
      Printf.eprintf "ksa: checkpoint not written: %s\n%!" msg

(* under [c.lock] *)
let threshold_reached c sink ~items =
  items - c.last_items >= sink.policy.every_items
  || Clock.elapsed_s ~since:c.last_ns >= sink.policy.every_seconds

let due c ~items =
  match c.sink with
  | None -> false
  | Some sink -> with_lock c (fun () -> threshold_reached c sink ~items)

let tick c ~items snap =
  match c.sink with
  | None -> ()
  | Some sink -> (
      Mutex.lock c.lock;
      match
        if threshold_reached c sink ~items then begin
          write_now c sink snap;
          c.last_ns <- Clock.now_ns ();
          c.last_items <- items
        end
      with
      | () -> Mutex.unlock c.lock
      | exception e ->
          Mutex.unlock c.lock;
          raise e)

let flush c snap =
  match c.sink with
  | None -> ()
  | Some sink ->
      with_lock c (fun () ->
          write_now c sink snap;
          c.last_ns <- Clock.now_ns ();
          c.last_items <- 0)
