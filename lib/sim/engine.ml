module Intern = Ksa_prim.Intern
module Metrics = Ksa_prim.Metrics

(* Shared by every functor instance and domain: the memo ratio is a
   property of the workload, not of one algorithm module. *)
let m_steps = Metrics.counter "sim.steps"
let m_memo_hits = Metrics.counter "sim.memo.hits"
let m_memo_misses = Metrics.counter "sim.memo.misses"

type delivery_policy = Empty_or_all | Per_sender | All_subsets

(* Transition-memo keys are int sequences held in int arrays, the
   sequence's length in slot 0 and the sequence in the slots behind it.
   Hashing and equality read only those slots, so a longer scratch
   array probes the table as it stands; only an insert copies the key
   out.  Top-level recursions: a probe allocates nothing. *)
module Memo = Hashtbl.Make (struct
  type t = int array

  let rec equal_from (a : t) (b : t) i last =
    i > last || (a.(i) = b.(i) && equal_from a b (i + 1) last)

  let equal a b = a.(0) = b.(0) && equal_from a b 1 a.(0)

  let rec hash_from (a : t) i last h =
    if i > last then h
    else
      let h = (h lxor a.(i)) * 0x2127599bf4325c37 in
      hash_from a (i + 1) last (h lxor (h lsr 29))

  let hash a = hash_from a 0 a.(0) 0 land max_int
end)

module Make (A : Algorithm.S) = struct
  (* Per-pid data lives in plain arrays under a copy-on-write
     discipline: every step copies the (tiny) array before writing, so
     configurations remain immutable and forkable while per-step
     access is O(1) with no balanced-tree overhead. *)
  type config = {
    n : int;
    inputs : Value.t array;
    time : int;
    states : A.state array; (* copy-on-write *)
    decided : (Value.t * int) option array; (* copy-on-write *)
    inbox : (A.message Envelope.t * int) list array;
        (* the pending messages, one list per destination, newest
           first; copy-on-write.  Each envelope is paired with the
           packed (src, dst, payload id) triple the key builder needs,
           precomputed once at send time.  This is the only index of
           the pending set: a send or a delivery touches one list, and
           the explorer's per-process delivery choices are
           O(|buffer(p)|).  Ids are allocated in send order, so every
           list is strictly id-descending; {!pending} merges the lists
           back into ascending id order, and {!observe} hands them to
           the adversary as they are. *)
    next_id : int;
    init_ids : int array; (* interned initial states; never mutated *)
    state_ids : int array;
        (* per-pid interned state ids (copy-on-write), maintained
           incrementally — only the stepping pid's state is
           re-interned *)
    record : bool;
        (* keep the event and forge logs; the only thing it changes *)
    reduce : bool;
        (* reduction mode: [A.canon] is applied to every produced
           state and [A.canon_message] to every sent payload before
           interning, so representation-equal states/messages share
           one id *)
    events : Event.t list; (* reversed; empty unless [record] *)
    forges : (int * int) list;
        (* (message id, forge-pool index) of every forged delivery, in
           reverse order; empty unless [record].  Replay projection
           needs it to re-emit the forgeries a recorded run saw. *)
  }

  exception Invalid_action of string
  exception Double_decision of Pid.t

  (* Structurally distinct states and payloads are interned to dense
     integers, so a configuration key is an exact sequence of small
     ints — no hash collision can conflate distinct configurations
     (the registries resolve generic-hash collisions with structural
     equality, exactly the equality [Marshal]-blob keys provided).
     The registries live in {!Ksa_prim.Intern} and are shared by
     every engine functor instance, every substrate and every domain:
     state ids are therefore comparable across [Engine.Make (A)] and
     [Engine.Make (Restrict (A))], and across this engine and the
     Heard-Of engine — which is what lets {!Trace.t} be the one
     currency of indistinguishability. *)
  let intern_state (s : A.state) = Intern.id Intern.states s
  let intern_payload (m : A.message) = Intern.id Intern.payloads m

  (* The packed (src, dst, payload id) triple representation lives in
     {!Canon}, shared with the reduction layer that takes the triples
     apart again. *)
  let pack_triple = Canon.pack_triple

  (* ---- the per-destination pending lists ----

     Top-level recursions rather than closures: the recorded-run step
     loop calls these on every action. *)

  type entry = A.message Envelope.t * int

  (* The entry of message [id] in one id-descending inbox; the walk
     stops at the first smaller id.  @raise Not_found *)
  let rec find_entry id : entry list -> entry = function
    | [] -> raise Not_found
    | ((e, _) as x) :: rest ->
        if e.Envelope.id = id then x
        else if e.id < id then raise Not_found
        else find_entry id rest

  (* The entry of pending message [id] in any of the inboxes [0..p].
     @raise Not_found *)
  let rec find_pending inbox id p =
    if p < 0 then raise Not_found
    else
      match find_entry id inbox.(p) with
      | x -> x
      | exception Not_found -> find_pending inbox id (p - 1)

  (* The entries of [l] named by [ids], both id-descending, consed
     onto [acc] — so in ascending id order.  One walk of [l].
     @raise Not_found if [l] lacks one of them *)
  let rec take_desc ids (l : entry list) acc =
    match ids with
    | [] -> acc
    | id :: ids' -> (
        match l with
        | [] -> raise Not_found
        | ((e, _) as x) :: rest ->
            if e.Envelope.id = id then take_desc ids' rest (x :: acc)
            else if e.id > id then take_desc ids rest acc
            else raise Not_found)

  (* [l] without the entries named by [ids] (both id-descending, all
     of them in [l]); the tail behind the last of them is shared *)
  let rec remove_desc ids (l : entry list) =
    match ids with
    | [] -> l
    | id :: ids' -> (
        match l with
        | [] -> []
        | ((e, _) as x) :: rest ->
            if e.Envelope.id = id then remove_desc ids' rest
            else x :: remove_desc ids rest)

  (* Transition memo.  For a failure-detector-free algorithm a step is
     a pure function of (local state, received sequence) — and both
     the DFS explorer and the recorded-mode portfolios (the Theorem 1
     screen runs the same algorithm under several adversaries)
     re-execute the same local transition under thousands of different
     global configurations.  Keyed by interned ids, so hits skip
     [A.step] and every intern call.  One table per domain
     (domain-local storage): no synchronisation.  An entry is also a
     step's outcome: {!step} returns it, and {!write_step_key} and
     {!commit} read the successor off it. *)
  type outcome = {
    m_state : A.state;
    m_state_id : int;
    m_sends : (Pid.t * A.message * int) list; (* dst, payload, payload id *)
    m_dec : Value.t option;
    m_row : (Value.t * int) option;
        (* [m_dec] as a decided row with time 0, built once: what a key
           reads of a first decision *)
  }

  (* The memo is keyed by the int sequence [reduce; state id;
     contents], the contents being the {!Canon.triple_content} of each
     delivered message, sorted as ints.  [reduce] is 1 or 0: reduced
     and unreduced runs intern different (canonicalized vs raw) states
     under the same ids, so their entries must not be conflated.  The
     fold order is a function of the batch's multiset (see
     [canonical_fold]), so the sorted multiset names the received
     sequence.

     The domain's scratch holds the key being probed and the successor
     rows {!write_step_key} hands to {!Canon.write_key}; each grows on
     demand and never shrinks.  It also holds the last decided row
     {!decisions} listed, and that list. *)
  type scratch = {
    memo : outcome Memo.t;
    mutable mkey : int array;
    mutable sids : int array;
    mutable rows : (Value.t * int) option array;
    mutable dec_row : (Value.t * int) option array;
    mutable dec_list : (Pid.t * Value.t * int) list;
  }

  let scratch_dls =
    Domain.DLS.new_key (fun () ->
        {
          memo = Memo.create 4096;
          mkey = Array.make 16 0;
          sids = [||];
          rows = [||];
          dec_row = [||];
          dec_list = [];
        })

  let init ?(reduction = Canon.No_reduction) ?(record = true) ~n ~inputs () =
    if Array.length inputs <> n then invalid_arg "Engine.init: inputs length";
    let reduce = reduction <> Canon.No_reduction in
    let states = Array.init n (fun p -> A.init ~n ~me:p ~input:inputs.(p)) in
    let states = if reduce then Array.map A.canon states else states in
    let init_ids = Array.map intern_state states in
    {
      n;
      inputs = Array.copy inputs;
      time = 0;
      states;
      decided = Array.make n None;
      inbox = Array.make n [];
      next_id = 0;
      init_ids;
      state_ids = init_ids;
      record;
      reduce;
      events = [];
      forges = [];
    }

  let init_explore ?reduction ~n ~inputs () =
    init ?reduction ~record:false ~n ~inputs ()

  let time c = c.time
  let n c = c.n
  let state_of c p = c.states.(p)
  let decision_of c p = Option.map fst c.decided.(p)

  let rec decided_from row p acc =
    if p < 0 then acc
    else
      decided_from row (p - 1)
        (match row.(p) with Some (v, t) -> (p, v, t) :: acc | None -> acc)

  (* A one-entry memo keyed by the row's physical identity: a decided
     row is never written once published, so one row always lists
     alike.  A crash successor shares its parent's row, and so does
     every step that decides nothing. *)
  let decisions c =
    let s = Domain.DLS.get scratch_dls in
    if s.dec_row != c.decided then begin
      s.dec_list <- decided_from c.decided (c.n - 1) [];
      s.dec_row <- c.decided
    end;
    s.dec_list

  let pending c =
    Array.fold_left (List.fold_left (fun acc (e, _) -> e :: acc)) [] c.inbox
    |> List.sort (fun (a : A.message Envelope.t) b -> Int.compare a.id b.id)

  let events c = List.rev c.events

  let inbox c p =
    List.rev_map (fun ((e : A.message Envelope.t), _) -> (e.id, e.src)) c.inbox.(p)

  (* ---- delivery batches ----

     The batches a policy offers, written straight off one inbox as id
     lists, newest first: the order the step entries take them in.
     Only the batches themselves are allocated. *)

  let rec batch_all : entry list -> int list = function
    | [] -> []
    | (e, _) :: rest -> e.Envelope.id :: batch_all rest

  let rec batch_of src : entry list -> int list = function
    | [] -> []
    | (e, _) :: rest ->
        if e.Envelope.src = src then e.id :: batch_of src rest
        else batch_of src rest

  let rec sent_by src : entry list -> bool = function
    | [] -> false
    | (e, _) :: rest -> e.Envelope.src = src || sent_by src rest

  (* Offers the bucket of each sender of [box] in order of first
     appearance: the oldest entries are looked at first, on the way
     back up the recursion.  The number of senders. *)
  let rec buckets box f : entry list -> int = function
    | [] -> 0
    | (e, _) :: older ->
        let k = buckets box f older in
        if sent_by e.Envelope.src older then k
        else begin
          f (batch_of e.src box);
          k + 1
        end

  (* The entries whose bit is set in [bits], the oldest on bit 0; [i]
     is the bit of the list's head *)
  let rec subset bits i : entry list -> int list = function
    | [] -> []
    | (e, _) :: rest ->
        if bits land (1 lsl i) <> 0 then
          e.Envelope.id :: subset bits (i - 1) rest
        else subset bits (i - 1) rest

  let iter_batches policy c pid f =
    let box = c.inbox.(pid) in
    match policy with
    | Empty_or_all -> (
        f [];
        match box with [] -> () | _ :: _ -> f (batch_all box))
    | Per_sender ->
        f [];
        if buckets box f box >= 2 then f (batch_all box)
    | All_subsets ->
        let m = List.length box in
        if m > Sys.int_size - 2 then
          invalid_arg "Engine.iter_batches: inbox too large for All_subsets";
        (* counting down: the whole inbox first, the empty batch last *)
        for bits = (1 lsl m) - 1 downto 0 do
          f (subset bits (m - 1) box)
        done

  (* One inbox oldest first, each id consed onto its sender's bucket:
     the recursion visits the tail before the head. *)
  let rec bucket_box a : entry list -> unit = function
    | [] -> ()
    | (e, _) :: rest ->
        bucket_box a rest;
        a.(e.Envelope.src) <- e.id :: a.(e.src)

  let pending_by_src c a =
    Array.fill a 0 c.n [];
    for p = 0 to c.n - 1 do
      bucket_box a c.inbox.(p)
    done

  (* O(1): the view shares the configuration's copy-on-write inboxes
     and decided row, which are never written once published. *)
  let observe ~pattern c =
    Adversary.view ~time:c.time ~n:c.n ~inbox:c.inbox ~decided:c.decided
      ~pattern

  (* Writes the triples of one inbox at [a.(i) ..]; the next free
     slot.  {!Canon.write_key} sorts them. *)
  let rec fill_triples a i : entry list -> int = function
    | [] -> i
    | (_, t) :: rest ->
        Array.unsafe_set a i t;
        fill_triples a (i + 1) rest

  let rec pending_count inbox p m =
    if p < 0 then m else pending_count inbox (p - 1) (m + List.length inbox.(p))

  (* A refusal of the batch [ids_desc] (distinct, descending) at
     [pid]: it names the smallest id that is not in [pid]'s inbox. *)
  let refuse c pid ids_desc =
    let id =
      List.fold_left
        (fun m id ->
          match find_entry id c.inbox.(pid) with
          | _ -> m
          | exception Not_found -> id)
        max_int ids_desc
    in
    raise
      (Invalid_action
         (match find_pending c.inbox id (c.n - 1) with
         | _ -> Printf.sprintf "message #%d not addressed to p%d" id pid
         | exception Not_found -> Printf.sprintf "message #%d not pending" id))

  (* The entries of [ids_desc] in [pid]'s inbox, in ascending id
     order. *)
  let deliverable c pid ids_desc =
    match take_desc ids_desc c.inbox.(pid) [] with
    | pairs -> pairs
    | exception Not_found -> refuse c pid ids_desc

  let rec strictly_desc = function
    | a :: (b :: _ as tl) -> a > b && strictly_desc tl
    | [] | [ _ ] -> true

  (* A batch as the step entries take it: distinct ids, descending
     like the inboxes.  A batch already so is returned as is. *)
  let desc ids =
    if strictly_desc ids then ids
    else List.sort_uniq (fun a b -> Int.compare b a) ids

  (* ---- forged deliveries ----

     The forge pool is a pure function of (n, inputs): the explorer,
     the fuzz adversary and replay all recompute it and agree on the
     indices recorded in schedules. *)
  let forge_pool ~n ~inputs =
    A.forge_pool ~n ~values:(Fault_model.forge_values inputs)

  (* The entries a step delivering [ids] to [pid] reads in place of
     the forged ones: each [(id, alt)] resolved to [id]'s entry with
     pool entry [alt] as its payload, canonical under a reduction and
     interned, exactly as a sent one. *)
  let forgeries c pid ids = function
    | [] -> []
    | forged ->
        let pool = Array.of_list (forge_pool ~n:c.n ~inputs:c.inputs) in
        let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_action s)) fmt in
        let once id =
          List.length (List.filter (fun (i, _) -> i = id) forged) = 1
        in
        List.map
          (fun (id, alt) ->
            if alt < 0 || alt >= Array.length pool then
              fail "forge: index %d outside the pool" alt;
            match find_entry id c.inbox.(pid) with
            | (e, _) when List.mem id ids && once id ->
                let m = pool.(alt) in
                let payload = if c.reduce then A.canon_message m else m in
                ( { e with Envelope.payload },
                  pack_triple e.src e.dst (intern_payload payload) )
            | _ | (exception Not_found) ->
                fail "forge: message #%d not delivered, or forged twice" id)
          forged

  (* [x], or the forged entry that replaces it *)
  let rec forged_as forged ((e, _) as x : entry) =
    match forged with
    | [] -> x
    | ((f, _) as y) :: rest ->
        if f.Envelope.id = e.Envelope.id then y else forged_as rest x

  (* Writes the contents of the entries of [l] named by [ids] (both
     descending) at [a.(pos)], [a.(pos - 1)], ..., so they end up in
     ascending id order, a forged entry with its forged payload.
     [false] when [l] lacks one of them. *)
  let rec fill_batch a pos ids forged (l : entry list) =
    match ids with
    | [] -> true
    | id :: ids' -> (
        match l with
        | [] -> false
        | ((e, t) as x) :: rest ->
            if e.Envelope.id = id then begin
              a.(pos) <-
                Canon.triple_content
                  (match forged with [] -> t | _ -> snd (forged_as forged x));
              fill_batch a (pos - 1) ids' forged rest
            end
            else if e.id > id then fill_batch a pos ids forged rest
            else false)

  (* Every step folds its delivered batch in canonical (sender,
     payload) order, not message-id order.  Ids encode one particular
     send interleaving; two configurations that agree on the content
     key can carry the same pending multiset under different id
     orders, and an id-order fold would give them diverging successors
     — the visited set of a keyed search would then depend on which
     representative it expands first.  With a canonical fold the
     successor keys are a function of the configuration key alone, and
     a recorded run steps exactly as the explorer does on the same
     path. *)
  let canonical_fold pairs =
    List.sort
      (fun ((a : A.message Envelope.t), _) ((b : A.message Envelope.t), _) ->
        match Int.compare a.src b.src with
        | 0 -> compare a.payload b.payload
        | o -> o)
      pairs

  (* The transition on the batch [ids] (all of them in [pid]'s inbox)
     with its [forged] payloads, the failure detector queried at the
     step's [time]. *)
  let transition ?fd c pid ids forged ~time =
    let pairs = deliverable c pid ids in
    let pairs =
      if forged = [] then pairs else List.map (forged_as forged) pairs
    in
    let fd_view =
      if not A.uses_fd then None
      else
        match fd with
        | None ->
            raise
              (Invalid_action
                 (A.name ^ " queries a failure detector but none was supplied"))
        | Some oracle -> Some (oracle ~time ~me:pid)
    in
    let received =
      List.map
        (fun ((e : A.message Envelope.t), _) -> (e.src, e.payload))
        (canonical_fold pairs)
    in
    let state', sends, dec = A.step c.states.(pid) ~received ~fd:fd_view in
    (* Reduction: normalize the produced state and payloads {e before}
       interning, and keep the canonical payload as the envelope
       content — the receiver must later step on exactly the message
       its interned id names, or two configurations with equal keys
       could diverge. *)
    let state' = if c.reduce then A.canon state' else state' in
    let m_sends =
      List.map
        (fun (dst, payload) ->
          let payload = if c.reduce then A.canon_message payload else payload in
          (dst, payload, intern_payload payload))
        sends
    in
    {
      m_state = state';
      m_state_id = intern_state state';
      m_sends;
      m_dec = dec;
      m_row = (match dec with None -> None | Some v -> Some (v, 0));
    }

  (* Validation and the transition: the memo key is written into the
     scratch straight off [pid]'s inbox and probed there, so a hit
     returns the stored entry having allocated nothing.  The batch is
     checked against the inbox on the way; the polymorphic canonical
     sort runs on a miss only. *)
  let step ?fd ?(forged = []) ~pattern c pid ids =
    let time = c.time + 1 in
    if not (Pid.valid ~n:c.n pid) then
      raise (Invalid_action (Printf.sprintf "invalid pid p%d" pid));
    (match Failure_pattern.crash_time pattern pid with
    | Some ct when time > ct ->
        raise
          (Invalid_action
             (Printf.sprintf "p%d crashed at %d, cannot step at %d" pid ct time))
    | Some _ | None -> ());
    Metrics.incr m_steps;
    let ids = desc ids in
    let forged = forgeries c pid ids forged in
    if A.uses_fd then transition ?fd c pid ids forged ~time
    else begin
      let s = Domain.DLS.get scratch_dls in
      let nids = List.length ids in
      let last = 2 + nids in
      if Array.length s.mkey <= last then
        s.mkey <- Array.make (max (last + 1) (2 * Array.length s.mkey)) 0;
      let a = s.mkey in
      a.(0) <- last;
      a.(1) <- Bool.to_int c.reduce;
      a.(2) <- c.state_ids.(pid);
      if not (fill_batch a last ids forged c.inbox.(pid)) then refuse c pid ids;
      if nids >= 2 then Canon.sort_slots a 3 (last + 1);
      match Memo.find s.memo a with
      | o ->
          Metrics.incr m_memo_hits;
          o
      | exception Not_found ->
          Metrics.incr m_memo_misses;
          let key = Array.sub a 0 (last + 1) in
          let o = transition c pid ids forged ~time in
          Memo.add s.memo key o;
          o
    end

  (* Writes the triples of [l] but those named by [ids] (both
     descending) at [a.(i) ..]; the next free slot. *)
  let rec fill_except a i ids (l : entry list) =
    match l with
    | [] -> i
    | (e, t) :: rest -> (
        match ids with
        | id :: ids' when e.Envelope.id = id -> fill_except a i ids' rest
        | _ ->
            a.(i) <- t;
            fill_except a (i + 1) ids rest)

  let invalid_send dst =
    raise (Invalid_action (Printf.sprintf "send to invalid pid p%d" dst))

  (* Writes the triples of [pid]'s sends at [a.(i) ..] *)
  let rec fill_sends a i ~n pid = function
    | [] -> ()
    | (dst, _, plid) :: rest ->
        if not (Pid.valid ~n dst) then invalid_send dst;
        a.(i) <- pack_triple pid dst plid;
        fill_sends a (i + 1) ~n pid rest

  (* A step may repeat its process's decision, never change it *)
  let check_decision c pid o =
    match (o.m_dec, c.decided.(pid)) with
    | Some v, Some (v0, _) when not (Value.equal v v0) ->
        raise (Double_decision pid)
    | _ -> ()

  (* The successor's key from the parent's rows and the outcome: the
     stepping pid's state id and decided row, and the pending triples
     less the delivered ones plus the sends.  The rows are copied into
     the scratch, never written in place: the parent is shared. *)
  let write_step_key ~crashed ~reduction c pid ids o =
    let ids = desc ids in
    let n = c.n in
    let m =
      pending_count c.inbox (n - 1) 0 - List.length ids + List.length o.m_sends
    in
    let a = Canon.triple_slots ~n ~m in
    let i = ref n in
    for p = 0 to n - 1 do
      i :=
        if p = pid then fill_except a !i ids c.inbox.(p)
        else fill_triples a !i c.inbox.(p)
    done;
    fill_sends a !i ~n pid o.m_sends;
    check_decision c pid o;
    let s = Domain.DLS.get scratch_dls in
    if Array.length s.sids < n then begin
      s.sids <- Array.make n 0;
      s.rows <- Array.make n None
    end;
    Array.blit c.state_ids 0 s.sids 0 n;
    Array.blit c.decided 0 s.rows 0 n;
    s.sids.(pid) <- o.m_state_id;
    (match c.decided.(pid) with None -> s.rows.(pid) <- o.m_row | Some _ -> ());
    Canon.write_key ~reduction ~value:fst ~n ~crashed ~state_ids:s.sids
      ~decided:s.rows ~m

  let commit c pid ids o =
    let ids = desc ids in
    let time = c.time + 1 in
    let inbox = Array.copy c.inbox in
    (* delivered messages were all addressed to [pid]: one pass over
       its buffer removes them *)
    (match ids with
    | [] -> ()
    | _ -> inbox.(pid) <- remove_desc ids inbox.(pid));
    (* [refs] collects the (id, dst) of every send for the event log
       only *)
    let rec send id refs = function
      | [] -> (id, refs)
      | (dst, payload, plid) :: rest ->
          if not (Pid.valid ~n:c.n dst) then invalid_send dst;
          let e = { Envelope.id; src = pid; dst; sent_at = time; payload } in
          inbox.(dst) <- (e, pack_triple pid dst plid) :: inbox.(dst);
          send (id + 1) (if c.record then (id, dst) :: refs else refs) rest
    in
    let next_id, sent_refs = send c.next_id [] o.m_sends in
    check_decision c pid o;
    let decided =
      match (o.m_dec, c.decided.(pid)) with
      | Some v, None ->
          let d = Array.copy c.decided in
          d.(pid) <- Some (v, time);
          d
      | Some _, Some _ | None, _ -> c.decided
    in
    let events =
      if not c.record then []
      else
        {
          Event.time;
          pid;
          delivered =
            List.map
              (fun ((e : A.message Envelope.t), _) -> (e.id, e.src))
              (deliverable c pid ids);
          sent = List.rev sent_refs;
          decision =
            (match (o.m_dec, c.decided.(pid)) with
            | Some v, None -> Some v
            | Some _, Some _ | None, _ -> None);
          state_id = o.m_state_id;
        }
        :: c.events
    in
    (* only [pid]'s state changed: one intern per step (memo hits skip
       even that), not one per process per key *)
    let state_ids = Array.copy c.state_ids in
    state_ids.(pid) <- o.m_state_id;
    let states = Array.copy c.states in
    states.(pid) <- o.m_state;
    {
      c with
      time;
      states;
      decided;
      inbox;
      next_id;
      state_ids;
      events;
    }

  (* Idle-step test for the explorers.  The memo entry of an empty
     delivery is a pure function of (reduction flag, state id), so when
     it already exists and shows the same state id, no sends and no new
     decision, the step's successor agrees with [c] on every row {!key}
     reads — only time moves.  Anything else (memo
     miss, a pid {!step} would refuse, a decision it would reject)
     answers [false] and leaves the caller to take the real step.  The
     probe is the key [[mode; state id]] of an empty batch, written
     into the scratch. *)
  let idle_step ~pattern c pid =
    (not A.uses_fd)
    && Pid.valid ~n:c.n pid
    && (match Failure_pattern.crash_time pattern pid with
       | Some ct -> c.time + 1 <= ct
       | None -> true)
    &&
    let s = Domain.DLS.get scratch_dls in
    let sid = c.state_ids.(pid) in
    s.mkey.(0) <- 2;
    s.mkey.(1) <- Bool.to_int c.reduce;
    s.mkey.(2) <- sid;
    match Memo.find s.memo s.mkey with
    | exception Not_found -> false
    | { m_state_id; m_sends = []; m_dec; _ } -> (
        m_state_id = sid
        &&
        match (m_dec, c.decided.(pid)) with
        | None, _ -> true
        | Some v, Some (v0, _) -> Value.equal v v0
        | Some _, None -> false)
    | { m_sends = _ :: _; _ } -> false

  (* Remove the pending messages [ids] in order, vetting each with
     [check] first; an id not (or no longer) pending raises. *)
  let remove_pending ~what c ids check =
    if ids = [] then raise (Invalid_action ("empty " ^ what));
    let inbox = Array.copy c.inbox in
    List.iter
      (fun id ->
        match find_pending inbox id (c.n - 1) with
        | exception Not_found ->
            raise
              (Invalid_action
                 (Printf.sprintf "%s: message #%d not pending" what id))
        | (e, _) ->
            check e;
            inbox.(e.dst) <- remove_desc [ id ] inbox.(e.dst))
      ids;
    { c with inbox }

  let exec_drop ~pattern c ids =
    remove_pending ~what:"drop" c ids (fun (e : A.message Envelope.t) ->
        if not (Failure_pattern.is_crashed pattern e.src ~time:c.time) then
          raise
            (Invalid_action
               (Printf.sprintf "drop: sender p%d of message #%d has not crashed"
                  e.src e.id)))

  (* Note: a forged delivery is deliberately not gated on the failure
     pattern — fuzz replays run under a different pattern than the
     generating trial, and budget discipline (forge only messages of
     corrupted senders, at most [t] of them) is the generating
     adversary's obligation, pinned by the qcheck properties in
     test/test_byzantine.ml. *)
  let apply ?fd ~pattern c = function
    | Adversary.Halt -> None
    | Adversary.Step { pid; deliver } ->
        Some (commit c pid deliver (step ?fd ~pattern c pid deliver))
    | Adversary.Forging_step { pid; deliver; forged } ->
        let o = step ?fd ~forged ~pattern c pid deliver in
        let c' = commit c pid deliver o in
        Some
          (if c.record && forged <> [] then
             { c' with forges = List.rev_append forged c'.forges }
           else c')
    | Adversary.Drop ids -> Some (exec_drop ~pattern c ids)

  (* Ungated removal of pending messages — the mobile model's
     transient omission, where the sender is healthy (it never
     crashes) yet this round's messages are lost.  Not reachable
     through {!apply}: crash-model adversaries must keep going through
     the gated [Drop], and the explorer alone generates omissions. *)
  let omit c ids = remove_pending ~what:"omit" c ids ignore

  let trace_of c =
    (* c.events is newest-first: prepending while iterating it yields
       chronological per-pid rows *)
    let rev_rows = Array.make c.n [] in
    List.iter
      (fun (ev : Event.t) ->
        rev_rows.(ev.pid) <-
          { Trace.state_id = ev.state_id; decision = ev.decision }
          :: rev_rows.(ev.pid))
      c.events;
    Trace.make ~init_ids:c.init_ids ~steps:rev_rows

  let finish c ~pattern status =
    {
      Run.status;
      n = c.n;
      inputs = Array.copy c.inputs;
      pattern;
      events = events c;
      trace = trace_of c;
      decisions = decisions c;
      forges = List.rev c.forges;
    }

  let run_full ?(max_steps = 100_000) ?fd ?record ~n ~inputs ~pattern
      (adv : Adversary.t) =
    let all_correct_decided c =
      List.for_all
        (fun p -> c.decided.(p) <> None)
        (Failure_pattern.correct pattern)
    in
    let rec loop c steps_left =
      if steps_left <= 0 then (finish c ~pattern Run.Hit_step_budget, c)
      else
        match adv.Adversary.next (observe ~pattern c) with
        | Adversary.Halt ->
            let status =
              if all_correct_decided c then Run.All_correct_decided
              else Run.Halted_by_adversary
            in
            (finish c ~pattern status, c)
        | action -> (
            match apply ?fd ~pattern c action with
            | None -> assert false
            | Some c' ->
                let consumed =
                  match action with
                  | Adversary.Step _ | Adversary.Forging_step _ -> 1
                  | Adversary.Drop _ | Adversary.Halt -> 0
                in
                loop c' (steps_left - consumed))
    in
    loop (init ?record ~n ~inputs ()) max_steps

  let run ?max_steps ?fd ?record ~n ~inputs ~pattern adv =
    fst (run_full ?max_steps ?fd ?record ~n ~inputs ~pattern adv)

  (* ---- canonical configuration keys ----

     {!Canon.write_key} writes both layouts: the exact key under
     [No_reduction], the orbit key otherwise.  The engine copies its
     pending triples into Canon's scratch int array and hands over its
     own rows: the decided rows keep their decision times, which [fst]
     projects away.  Nothing is allocated until a caller copies the key
     out of {!Canon.key_buffer}. *)

  type key = string

  let write_key ~crashed ~reduction c =
    let n = c.n in
    let m = pending_count c.inbox (n - 1) 0 in
    let a = Canon.triple_slots ~n ~m in
    let i = ref n in
    for p = 0 to n - 1 do
      i := fill_triples a !i c.inbox.(p)
    done;
    Canon.write_key ~reduction ~value:fst ~n ~crashed ~state_ids:c.state_ids
      ~decided:c.decided ~m

  let key ?(crashed = 0) ?(reduction = Canon.No_reduction) c =
    let len = write_key ~crashed ~reduction c in
    Bytes.sub_string (Canon.key_buffer ()) 0 len
end
