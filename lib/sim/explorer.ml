module Metrics = Ksa_prim.Metrics
module Backoff = Ksa_prim.Backoff

exception Not_explorable of string

type delivery_policy = Engine.delivery_policy =
  | Empty_or_all
  | Per_sender
  | All_subsets

type stats = {
  configs_visited : int;
  terminal_runs : int;
  budget_exhausted : bool;
}

type outcome =
  | Safe of stats
  | Violation of { decisions : (Pid.t * Value.t * int) list; reason : string; depth : int }

type resilient_outcome =
  | All_paths_decide of stats
  | Safety_violation of {
      decisions : (Pid.t * Value.t * int) list;
      reason : string;
    }
  | Stuck of {
      crashed : Pid.t list;
      undecided_correct : Pid.t list;
      stats : stats;
    }
  | Indeterminate of stats

(* Crashed sets travel as int bitmasks.  Top level (not per functor
   instance): pure bit arithmetic, also exercised directly by the
   test suite. *)
module Mask = struct
  let mem mask p = mask land (1 lsl p) <> 0
  let add mask p = mask lor (1 lsl p)
  let to_list ~n mask = List.filter (mem mask) (Pid.universe n)

  (* Kernighan's loop: one iteration per set bit, no allocation —
     this sits on the crash-successor hot path. *)
  let popcount mask =
    let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
    go mask 0

  (* The ascending pid lists of two masks first part at their lowest
     differing bit.  The mask holding that bit has the smaller list,
     unless the other has no bit above it: then the other's list is a
     proper prefix. *)
  let compare_lists a b =
    let x = a lxor b in
    if x = 0 then 0
    else
      let low = x land -x in
      let above m = m land lnot (low lor (low - 1)) <> 0 in
      if a land low <> 0 then if above b then -1 else 1
      else if above a then 1
      else -1
end

(* ---- instrumentation (process-global, shared by both engines) ----

   Live counters tick during the search and feed progress reporting;
   at every domain count admission is exactly-once (dedup check and
   ticket draw are fused under the shard lock of the shared table),
   so [explore.admitted] counts each configuration once.  Counters
   are process-global and accumulate across runs; the authoritative
   per-run figures are published as gauges from the final [stats]
   record at completion. *)
let m_admitted = Metrics.counter "explore.admitted"
let m_dedup = Metrics.counter "explore.dedup.hits"
let m_terminals = Metrics.counter "explore.terminals"
let m_domains = Metrics.counter "explore.domains.spawned"
let m_truncations = Metrics.counter "explore.budget.truncations"
let m_steals = Metrics.counter "explore.steals"
let m_spills = Metrics.counter "explore.spills"

(* Reduction instrumentation.  [orbit_hits] counts dedup hits taken
   while a symmetry reduction is active — an upper bound on orbit
   identifications: encounters collapsed onto an already-admitted
   representative, whether by genuine orbit identification or by plain
   revisiting (the two are not separable at the table; under sym+por
   the admission key includes the sleep digest, so a hit means the
   same configuration AND the same sleep set).  [sleep_pruned] counts
   delivery transitions skipped by a DPOR sleep set before any
   successor was built.  [sleep_readmit] counts sym+por admissions of
   a configuration whose bare orbit key was already admitted under a
   different sleep digest ("sleep-in-key" fragmentation) — subtract it
   from [admitted] to recover distinct configurations.  [noop_pruned]
   counts empty-delivery successors skipped because they provably
   reproduce the parent key (self-loops in the keyed graph).
   [idle_skipped] counts empty deliveries answered by {!Engine}'s
   [idle_step] — proven idle by the transition memo, so never stepped,
   keyed or probed.  Each one is also counted where its successor
   always landed: a dedup (and, reduced, orbit) hit, or under sym+por a
   [noop_pruned]. *)
let m_orbit = Metrics.counter "explore.orbit_hits"
let m_sleep_pruned = Metrics.counter "explore.sleep_pruned"
let m_sleep_readmit = Metrics.counter "explore.sleep_readmitted"
let m_noop_pruned = Metrics.counter "explore.noop_pruned"
let m_idle = Metrics.counter "explore.idle_skipped"
let g_frontier_peak = Metrics.gauge "explore.frontier.peak"
let g_depth_peak = Metrics.gauge "explore.depth.peak"
let g_max_configs = Metrics.gauge "explore.budget.max_configs"
let g_visited = Metrics.gauge "explore.configs_visited"
let g_terminal_runs = Metrics.gauge "explore.terminal_runs"
let g_exhausted = Metrics.gauge "explore.budget_exhausted"
let t_worker = Metrics.timer "explore.worker"

let record_run_stats (s : stats) =
  Metrics.gauge_set g_visited s.configs_visited;
  Metrics.gauge_set g_terminal_runs s.terminal_runs;
  Metrics.gauge_set g_exhausted (if s.budget_exhausted then 1 else 0)

(* a malformed [KSA_DOMAINS] ("0", "abc") reads as unset *)
let default_domains () =
  match
    Option.bind (Sys.getenv_opt "KSA_DOMAINS") (fun s ->
        int_of_string_opt (String.trim s))
  with
  | Some d when d >= 1 -> d
  | Some _ | None -> Domain.recommended_domain_count ()

(* ---- pause-the-world coordination for a multi-domain run ----

   A checkpoint must capture a consistent cut of every worker's
   private state.  Workers poll a request flag at their drain-loop
   safepoints (between node expansions — never mid-node); on request
   each publishes a deep snapshot into its slot and parks on a
   condition until released.  The coordinator waits until every live
   worker is parked (workers that already finished have published a
   final snapshot on exit), merges the slots, writes, and releases.
   With no sink and no interrupt poll the request flag stays false
   and the safepoint is one relaxed atomic read per node. *)
module Pause = struct
  type 'a t = {
    req : bool Atomic.t;
    m : Mutex.t;
    parked_cond : Condition.t;
    resume_cond : Condition.t;
    mutable parked : int;
    mutable active : int;
    slots : 'a option array;
  }

  let create n =
    {
      req = Atomic.make false;
      m = Mutex.create ();
      parked_cond = Condition.create ();
      resume_cond = Condition.create ();
      parked = 0;
      active = n;
      slots = Array.make n None;
    }

  (* worker safepoint: park (publishing a snapshot) while a pause is
     requested.  [None] is the supervised re-run path: no pause
     machinery, the coordinator is gone by then. *)
  let point p i snap =
    match p with
    | None -> ()
    | Some p ->
        if Atomic.get p.req then begin
          Mutex.lock p.m;
          p.slots.(i) <- Some (snap ());
          p.parked <- p.parked + 1;
          Condition.signal p.parked_cond;
          while Atomic.get p.req do
            Condition.wait p.resume_cond p.m
          done;
          p.parked <- p.parked - 1;
          Mutex.unlock p.m
        end

  (* worker exit: leave a final snapshot so later checkpoints still
     cover this worker's share of the space *)
  let exit p i snap =
    match p with
    | None -> ()
    | Some p ->
        Mutex.lock p.m;
        p.slots.(i) <- Some (snap ());
        p.active <- p.active - 1;
        Condition.signal p.parked_cond;
        Mutex.unlock p.m

  (* coordinator: stop the world, run [f] over the slots, release *)
  let with_world p f =
    Mutex.lock p.m;
    Atomic.set p.req true;
    while p.parked < p.active do
      Condition.wait p.parked_cond p.m
    done;
    Fun.protect
      ~finally:(fun () ->
        Atomic.set p.req false;
        Condition.broadcast p.resume_cond;
        Mutex.unlock p.m)
      (fun () -> f p.slots)
end

(* The checkpoint/interrupt coordinator of a multi-domain run: a small
   ticker domain.  When a periodic write is due it stops the world,
   merges the worker slots into the driver's payload and
   writes it; when the campaign is interrupted it writes a final
   checkpoint the same way, then raises the driver's stop flag (via
   [on_interrupt]) and retires. *)
let spawn_coordinator ~ckpt ~pause ~items ~merge ~on_interrupt =
  if not (Checkpoint.engaged ckpt) then None
  else
    let quit = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          (* poll pacing: ramp from 0.5ms to 5ms between checks, reset
             after every world-stop so the next write lands promptly *)
          let sp = Backoff.Spin.make ~relax:0 ~floor:5e-4 ~cap:5e-3 () in
          let rec loop () =
            if not (Atomic.get quit) then begin
              Backoff.Spin.wait sp;
              let intr = Checkpoint.interrupted ckpt in
              if intr || Checkpoint.due ckpt ~items:(items ()) then begin
                Pause.with_world pause (fun slots ->
                    let payload = lazy (merge slots) in
                    if intr then
                      Checkpoint.flush ckpt (fun () -> Lazy.force payload)
                    else
                      Checkpoint.tick ckpt ~items:(items ()) (fun () ->
                          Lazy.force payload));
                Backoff.Spin.reset sp
              end;
              if intr then begin
                on_interrupt ();
                Atomic.set quit true
              end;
              loop ()
            end
          in
          loop ())
    in
    Some (quit, d)

module Shardset = Ksa_prim.Shardset

(* ---- batched work-stealing frontier of the workers ----

   One pool per worker: a mutex-guarded queue of item {e batches} with
   an atomic item-count mirror, so dry workers can scan every pool
   without touching foreign locks.  Each worker keeps a private LIFO
   stack as its working set (depth-first, cache-hot) and spills the
   {e oldest} half — the shallow, bushy end of the frontier — into its
   own pool as one batch when the stack grows and its pool has run
   dry; thieves take half a victim's batches at a time, amortising
   cross-domain traffic over whole batches.

   Termination is an idle-count protocol.  A worker that finds its
   stack, its own pool and every victim empty parks itself in [idle]
   and waits (with backoff) for one of: work appearing in some pool,
   the driver's stop flag, or completion.  Completion holds exactly
   when every live worker is idle and every pool is empty — items
   live only in non-idle workers' private stacks or in pools, so that
   state has no producer left.  The completion test reads the idle
   count {e before} the pool sizes, and a re-activating worker leaves
   [idle] {e before} it removes anything from a pool, so a racing
   observer sees either the smaller idle count or the not-yet-empty
   pool — never a spurious completion. *)
module Wspool = struct
  type 'a t = {
    queues : (int * 'a list) Queue.t array;
    locks : Mutex.t array;
    sizes : int Atomic.t array;
    idle : int Atomic.t;
    live : int Atomic.t;
    finished : bool Atomic.t;
  }

  let create ~workers =
    {
      queues = Array.init workers (fun _ -> Queue.create ());
      locks = Array.init workers (fun _ -> Mutex.create ());
      sizes = Array.init workers (fun _ -> Atomic.make 0);
      idle = Atomic.make 0;
      live = Atomic.make workers;
      finished = Atomic.make false;
    }

  let locked t i f =
    Mutex.lock t.locks.(i);
    Fun.protect ~finally:(fun () -> Mutex.unlock t.locks.(i)) f

  let push_batch t i ~count items =
    if count > 0 then
      locked t i (fun () ->
          Queue.add (count, items) t.queues.(i);
          Atomic.set t.sizes.(i) (Atomic.get t.sizes.(i) + count))

  let pop_batch t i =
    if Atomic.get t.sizes.(i) = 0 then None
    else
      locked t i (fun () ->
          match Queue.take_opt t.queues.(i) with
          | None -> None
          | Some (c, items) ->
              Atomic.set t.sizes.(i) (Atomic.get t.sizes.(i) - c);
              Some (c, items))

  let workers t = Array.length t.queues
  let own_pending t i = Atomic.get t.sizes.(i)
  let pending t = Array.fold_left (fun acc s -> acc + Atomic.get s) 0 t.sizes

  (* Take half the victim's batches: the oldest becomes the thief's
     working set, the rest are re-homed into the thief's own pool
     (after the victim's lock is released — locks never nest). *)
  let steal t i =
    let workers = workers t in
    let rec scan d =
      if d >= workers then None
      else
        let v = (i + d) mod workers in
        if Atomic.get t.sizes.(v) = 0 then scan (d + 1)
        else
          let stolen =
            locked t v (fun () ->
                let take = (Queue.length t.queues.(v) + 1) / 2 in
                let acc = ref [] and n = ref 0 in
                for _ = 1 to take do
                  match Queue.take_opt t.queues.(v) with
                  | Some (c, items) ->
                      acc := (c, items) :: !acc;
                      n := !n + c
                  | None -> ()
                done;
                Atomic.set t.sizes.(v) (Atomic.get t.sizes.(v) - !n);
                List.rev !acc)
          in
          match stolen with
          | [] -> scan (d + 1)
          | (c, items) :: rest ->
              List.iter (fun (c', b) -> push_batch t i ~count:c' b) rest;
              Metrics.incr m_steals;
              Some (c, items)
    in
    scan 1

  (* non-destructive: every queued item, for the checkpoint cut *)
  let iter_pending t f =
    Array.iteri
      (fun i _ ->
        locked t i (fun () ->
            Queue.iter (fun (_, items) -> List.iter f items) t.queues.(i)))
      t.queues

  (* round-robin the initial items into small batches so even the
     first steals move real work; one worker pops them in list order *)
  let seed t items =
    let workers = workers t in
    let batch = ref [] and blen = ref 0 and w = ref 0 in
    let flush () =
      if !blen > 0 then begin
        push_batch t !w ~count:!blen (List.rev !batch);
        w := (!w + 1) mod workers;
        batch := [];
        blen := 0
      end
    in
    List.iter
      (fun it ->
        batch := it :: !batch;
        incr blen;
        if !blen >= 8 then flush ())
      items;
    flush ()

  (* a worker dying of a non-verdict exception leaves the live set *)
  let retire t = Atomic.decr t.live

  (* the post-join rescue drains leftovers with one fresh worker *)
  let reset_for_rescue t =
    Atomic.set t.finished false;
    Atomic.set t.idle 0;
    Atomic.set t.live 1

  (* Next batch for worker [i], or [None] when the search is complete
     or [stopped].  [safepoint] keeps the pause-the-world protocol
     responsive while idling (an idle worker's stack is empty, so its
     published snapshot is trivially consistent).  Backoff starts with
     [cpu_relax] and falls back to short sleeps so idle workers do not
     starve working domains of cores. *)
  let acquire t i ~safepoint ~stopped =
    let try_take () =
      match pop_batch t i with Some _ as r -> r | None -> steal t i
    in
    match try_take () with
    | Some _ as r -> r
    | None ->
        Atomic.incr t.idle;
        let sp = Backoff.Spin.make () in
        let rec wait () =
          safepoint ();
          if stopped () || Atomic.get t.finished then begin
            Atomic.decr t.idle;
            None
          end
          else if pending t > 0 then begin
            Atomic.decr t.idle;
            match try_take () with
            | Some _ as r -> r
            | None ->
                Atomic.incr t.idle;
                Backoff.Spin.reset sp;
                wait ()
          end
          else if Atomic.get t.idle >= Atomic.get t.live && pending t = 0
          then begin
            Atomic.set t.finished true;
            Atomic.decr t.idle;
            None
          end
          else begin
            Backoff.Spin.wait sp;
            wait ()
          end
        in
        wait ()
end

(* ---- write-once dense-id record store shared across domains ----

   Records are indexed by the global dense ids the admission tickets
   hand out.  Storage is chunked: a top-level vector of lazily
   CAS-installed chunks, widened by publishing a larger vector that
   aliases the same chunk cells (readers holding the old vector still
   reach every chunk they can index).  Each slot is written exactly
   once, by the domain that expands that node; the plain writes are
   made visible to readers by the synchronisation that precedes every
   read — a worker join, or a pause-the-world with all workers parked
   on the pause mutex. *)
module Nodestore = struct
  let chunk_bits = 13
  let chunk_size = 1 lsl chunk_bits

  type 'r t = {
    top : 'r array option Atomic.t array Atomic.t;
    grow : Mutex.t;
    empty : 'r;
  }

  let create ~empty =
    {
      top = Atomic.make (Array.init 16 (fun _ -> Atomic.make None));
      grow = Mutex.create ();
      empty;
    }

  let rec cell t c =
    let top = Atomic.get t.top in
    if c < Array.length top then top.(c)
    else begin
      Mutex.lock t.grow;
      let top = Atomic.get t.top in
      if c >= Array.length top then begin
        let n = ref (Array.length top) in
        while c >= !n do
          n := !n * 2
        done;
        let wider =
          Array.init !n (fun i ->
              if i < Array.length top then top.(i) else Atomic.make None)
        in
        Atomic.set t.top wider
      end;
      Mutex.unlock t.grow;
      cell t c
    end

  let chunk t c =
    let cell = cell t c in
    match Atomic.get cell with
    | Some a -> a
    | None ->
        let a = Array.make chunk_size t.empty in
        if Atomic.compare_and_set cell None (Some a) then a
        else (match Atomic.get cell with Some a -> a | None -> assert false)

  let set t i r = (chunk t (i lsr chunk_bits)).(i land (chunk_size - 1)) <- r

  (* unwritten slots read as [empty] — for the explorers that means
     "admitted but not yet expanded" *)
  let get t i =
    let c = i lsr chunk_bits in
    let top = Atomic.get t.top in
    if c >= Array.length top then t.empty
    else
      match Atomic.get top.(c) with
      | None -> t.empty
      | Some a -> a.(i land (chunk_size - 1))
end

(* ---- crash-graph node rows ----

   An expanded crash-graph node is one [Bytes] row: its crashed mask
   and its undecided live pids' mask as little-endian int64 at bytes 0
   and 8, then its successor ids as little-endian int32 from byte 16.
   The node is complete iff its undecided mask is 0.  A row's contents
   are opaque to the GC, which never scans them on a major mark, and
   an id costs half a word: the graph is most of a crash campaign's
   working set, and the Stuck verdict needs all of it in memory.  The
   ids are admission tickets, below [max_nodes]. *)
module Row = struct
  type t = Bytes.t

  external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
  external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
  external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
  external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
  external swap64 : int64 -> int64 = "%bswap_int64"
  external swap32 : int32 -> int32 = "%bswap_int32"

  let max_nodes = 0x7fff_ffff
  let header = 16

  (* The masks' reads are checked, so a row of any length reads
     without leaving it; the id reads are not, and every caller has
     the offset in bounds. *)
  let[@inline] get_int b i =
    Int64.to_int (if Sys.big_endian then swap64 (get64 b i) else get64 b i)

  let[@inline] set_int b i v =
    let v = Int64.of_int v in
    set64 b i (if Sys.big_endian then swap64 v else v)

  let[@inline] get32 b i =
    Int32.to_int (if Sys.big_endian then swap32 (get32u b i) else get32u b i)

  let[@inline] set32 b i v =
    let v = Int32.of_int v in
    set32u b i (if Sys.big_endian then swap32 v else v)

  let make ~mask ~undecided succs len =
    if len < 0 || len > Array.length succs then invalid_arg "Row.make";
    let r = Bytes.create (header + (4 * len)) in
    set_int r 0 mask;
    set_int r 8 undecided;
    for j = 0 to len - 1 do
      set32 r (header + (4 * j)) (Array.unsafe_get succs j)
    done;
    r

  (* the unexpanded slot: no expanded row has a negative undecided
     mask, so the sentinel survives a marshal round trip as a
     recognisable value *)
  let empty = make ~mask:0 ~undecided:(-1) [||] 0
  let mask r = get_int r 0
  let undecided r = get_int r 8
  let is_empty r = undecided r < 0
  let length r = (Bytes.length r - header) asr 2
  let[@inline] succ r j = get32 r (header + (4 * j))
  let succs r = Array.init (length r) (succ r)

  (* Backwards reachability from the complete nodes; [None] when every
     node can still reach completion.  The predecessors are built in
     CSR form — the preds of [id] are the int32 slots [off.(id) ..
     off.(id + 1) - 1] of [pred] — and marking runs on an explicit
     int32 stack that holds each node at most once, against one mark
     byte per node.  [off] stays a native int array: the edge count
     can pass 2^31 before the node count does.  The reported witness is
     the minimum over (mask, ascending undecided pid list) of all stuck
     nodes, so runs that discover nodes in different orders return the
     same one.  The pid lists are ordered on their masks by
     {!Mask.compare_lists}, not by the masks' value (which would rank
     [p1] below [p0; p2]). *)
  let classify ~count (row : int -> t) =
    let off = Array.make (count + 1) 0 in
    for id = 0 to count - 1 do
      let r = row id in
      for j = 0 to length r - 1 do
        let s = succ r j in
        off.(s) <- off.(s) + 1
      done
    done;
    (* prefix sums: [off.(s)] is the end of [s]'s slice; the fill
       below walks each one back to its start *)
    for id = 1 to count do
      off.(id) <- off.(id) + off.(id - 1)
    done;
    let pred = Bytes.create (4 * off.(count)) in
    for id = 0 to count - 1 do
      let r = row id in
      for j = 0 to length r - 1 do
        let s = succ r j in
        off.(s) <- off.(s) - 1;
        set32 pred (4 * off.(s)) id
      done
    done;
    let can_decide = Bytes.make count '\000' in
    let stack = Bytes.create (4 * count) and top = ref 0 in
    let mark id =
      if Bytes.unsafe_get can_decide id = '\000' then begin
        Bytes.unsafe_set can_decide id '\001';
        set32 stack (4 * !top) id;
        incr top
      end
    in
    for id = 0 to count - 1 do
      if undecided (row id) = 0 then mark id
    done;
    while !top > 0 do
      decr top;
      let id = get32 stack (4 * !top) in
      for j = off.(id) to off.(id + 1) - 1 do
        mark (get32 pred (4 * j))
      done
    done;
    let stuck = ref None in
    for id = 0 to count - 1 do
      if Bytes.unsafe_get can_decide id = '\000' then begin
        let r = row id in
        let m = mask r and u = undecided r in
        match !stuck with
        | Some (mask, und)
          when mask < m || (mask = m && Mask.compare_lists und u <= 0) ->
            ()
        | Some _ | None -> stuck := Some (m, u)
      end
    done;
    !stuck
end

(* A safety verdict: the violating decisions, the reason, and the
   depth of the configuration (0 where depth is not tracked).  Raised
   by a driver's step, it stops the search. *)
exception Verdict of (Pid.t * Value.t * int) list * string * int

(* ---- the work-stealing runtime of the explorer driver ----

   Everything a search needs except the search itself: [domains]
   workers over one {!Wspool}, each draining a private LIFO stack
   between {!Pause} safepoints; one ticket-clamped admission counter;
   the checkpoint/interrupt coordinator; and supervision.  The driver
   supplies the per-item step ([make] builds it and its helpers once
   per worker, not once per item) and the merge of a cut into its
   checkpoint payload.

   One domain spawns nothing: the worker runs in the calling domain,
   never spills, and polls the interrupt before each pop and offers a
   periodic write after each step — a sequential worklist loop.

   Supervision: a step that fails with a non-verdict exception puts
   its in-flight item back on the stack in its admitted form
   ({!requeue}); the dying worker hands its whole stack back to the
   pool for the survivors, leaves the live set, and is logged through
   {!Checkpoint.note_failure}; its admissions stand and no ticket is
   refunded.  If dead workers' items outlived every survivor, one
   rescue worker drains them in the calling domain after the join —
   a rescue that dies too is a systematic fault, surfaced as
   [Failure].  A fault raised by a worker's own checkpoint write is
   not a worker failure: it leaves the driver. *)
module Workers = struct
  type 'a t = {
    domains : int;
    max_configs : int;
    count : int Atomic.t;
    stop : bool Atomic.t;
    pool : 'a Wspool.t;
    seen : Shardset.t;
  }

  (* One worker's private stack.  The driver's step pushes successors
     with [push] and sets [exhausted] when it turns a configuration
     away or cuts a branch. *)
  type 'a w = {
    i : int;
    pool : 'a Wspool.t;
    mutable local : 'a list;
    mutable len : int;
    mutable peak : int;
    mutable exhausted : bool;
  }

  (* [seen] is the driver's dedup table, whose metrics are published
     at the end of the run *)
  let create ~domains ~max_configs ~seen () =
    let domains = max 1 domains in
    {
      domains;
      max_configs;
      count = Atomic.make 0;
      stop = Atomic.make false;
      pool = Wspool.create ~workers:domains;
      seen;
    }

  let count t = Atomic.get t.count

  (* The ticket clamp, fused with the dedup check under the shard lock
     by {!Shardset.admit_bytes}: a ticket is only drawn for a
     genuinely-new key, so tickets below the budget are dense and
     issued exactly once (refunds only happen at or above the budget) —
     the admitted count is exact even under domain races.  [-1] at the
     budget. *)
  let ticket t () =
    let tk = Atomic.fetch_and_add t.count 1 in
    if tk >= t.max_configs then begin
      Atomic.decr t.count;
      -1
    end
    else tk

  let seed (t : _ t) items = Wspool.seed t.pool items

  let push w item =
    w.local <- item :: w.local;
    w.len <- w.len + 1

  (* A step's failure [e], re-raised: unless it is a verdict, [item] —
     the in-flight item in its admitted form — goes back on the stack
     first, so nothing is lost when the stack is handed back and
     whoever pops it next expands it without admitting it again. *)
  let requeue w item e =
    (match e with Verdict _ -> () | _ -> push w item);
    raise e

  (* spill once the private stack holds this many items *)
  let spill_at = 64

  (* first [k] elements kept, the rest handed off *)
  let rec split_at k l =
    if k = 0 then ([], l)
    else
      match l with
      | [] -> ([], [])
      | x :: tl ->
          let a, b = split_at (k - 1) tl in
          (x :: a, b)

  (* called after each expansion: note the stack's peak, and hand the
     oldest half of a grown stack to this worker's pool once the pool
     has run dry and someone could steal it *)
  let maybe_spill w =
    if w.len > w.peak then w.peak <- w.len;
    if
      w.len >= spill_at
      && Wspool.workers w.pool > 1
      && Wspool.own_pending w.pool w.i = 0
    then begin
      let keep = w.len / 2 in
      let kept, handed = split_at keep w.local in
      let count = w.len - keep in
      w.local <- kept;
      w.len <- keep;
      Wspool.push_batch w.pool w.i ~count handed;
      Metrics.incr m_spills;
      Metrics.gauge_max g_frontier_peak (keep + Wspool.pending w.pool)
    end

  (* Run the search to completion, a verdict, or an interrupt.
     [merge ~pending ~exhausted] turns a cut (every pending item, in
     the order one worker would pop them, and whether any worker was
     exhausted) into a checkpoint payload.  Returns the verdicts found
     (worker order, rescue last) and whether the search was exhausted
     or interrupted. *)
  let run (t : _ t) ~ckpt ~merge make =
    let interrupted = ref false in
    let on_interrupt () =
      interrupted := true;
      Atomic.set t.stop true
    in
    (* a cut: every pending item sits in a published stack or in a
       pool, and one worker pops its stack before its pool *)
    let cut slots =
      let pooled = ref [] and exhausted = ref false in
      Wspool.iter_pending t.pool (fun it -> pooled := it :: !pooled);
      let pending =
        Array.fold_right
          (fun slot acc ->
            match slot with
            | None -> acc
            | Some (items, ex) ->
                if ex then exhausted := true;
                List.rev_append (List.rev items) acc)
          slots (List.rev !pooled)
      in
      merge ~pending ~exhausted:!exhausted
    in
    let inline = t.domains = 1 && Checkpoint.engaged ckpt in
    let worker pause i () =
      let w =
        { i; pool = t.pool; local = []; len = 0; peak = 0; exhausted = false }
      in
      let process = make w in
      let violation = ref None and failure = ref None in
      let snap () = (w.local, w.exhausted) in
      let safepoint () = Pause.point pause i snap in
      let stopped () = Atomic.get t.stop in
      (* the inline checkpoint work; [writing] marks its faults as the
         driver's own, to propagate rather than supervise *)
      let writing = ref false and ticked = ref (count t) in
      let write () = cut [| Some (snap ()) |] in
      let interrupt () =
        writing := true;
        let intr = Checkpoint.interrupted ckpt in
        if intr then (Checkpoint.flush ckpt write; on_interrupt ());
        writing := false;
        intr
      in
      let rec drain () =
        safepoint ();
        if not (stopped ()) then
          match w.local with
          | _ :: _ when inline && interrupt () -> ()
          | item :: rest ->
              w.local <- rest;
              w.len <- w.len - 1;
              process item;
              (* a periodic write is only offered once an admission
                 moved the count *)
              if inline && count t <> !ticked then begin
                ticked := count t;
                writing := true;
                Checkpoint.tick ckpt ~items:!ticked write;
                writing := false
              end;
              drain ()
          | [] -> (
              match Wspool.acquire t.pool i ~safepoint ~stopped with
              | Some (count, batch) ->
                  w.local <- batch;
                  w.len <- count;
                  drain ()
              | None -> ())
      in
      (try Metrics.time t_worker drain with
      | e when !writing -> raise e
      | Verdict (decisions, reason, depth) ->
          violation := Some (decisions, reason, depth);
          Atomic.set t.stop true
      | e ->
          let error = Printexc.to_string e and requeued = ref 0 in
          (try
             if w.len > 0 then begin
               Wspool.push_batch t.pool i ~count:w.len w.local;
               requeued := w.len;
               w.local <- [];
               w.len <- 0
             end
           with _ -> ());
          failure := Some (error, !requeued);
          Wspool.retire t.pool);
      Metrics.gauge_max g_frontier_peak w.peak;
      Pause.exit pause i snap;
      (w.exhausted, !violation, !failure)
    in
    let joined =
      if t.domains = 1 then [ worker None 0 () ]
      else begin
        let pause = Pause.create t.domains in
        let coordinator =
          spawn_coordinator ~ckpt ~pause
            ~items:(fun () -> count t)
            ~merge:cut ~on_interrupt
        in
        let joined =
          List.init t.domains (fun i ->
              Domain.spawn (fun () ->
                  Metrics.incr m_domains;
                  worker (Some pause) i ()))
          |> List.map Domain.join
        in
        Option.iter
          (fun (quit, d) ->
            Atomic.set quit true;
            Domain.join d)
          coordinator;
        joined
      end
    in
    List.iteri
      (fun i (_, _, failure) ->
        match failure with
        | Some (error, requeued) ->
            Checkpoint.note_failure ckpt ~worker:i ~error ~requeued
        | None -> ())
      joined;
    let failed = List.exists (fun (_, _, f) -> Option.is_some f) joined in
    let rescued =
      if failed && (not (Atomic.get t.stop)) && Wspool.pending t.pool > 0
      then begin
        Wspool.reset_for_rescue t.pool;
        match worker None 0 () with
        | _, _, Some (error, _) ->
            failwith
              (Printf.sprintf "explorer rescue worker failed twice: %s" error)
        | r -> [ r ]
      end
      else []
    in
    Shardset.publish_metrics t.seen;
    let results = joined @ rescued in
    ( List.filter_map (fun (_, v, _) -> v) results,
      !interrupted || List.exists (fun (ex, _, _) -> ex) results )
end

module Make (A : Algorithm.S) = struct
  module E = Engine.Make (A)

  (* Both engines explore an FD-free algorithm whose crashes all happen
     at time 0 — the crash-free engine's [pattern], the crash engine's
     [initially_dead] — among few enough pids for crashed-set
     bitmasks. *)
  let require_explorable ~n ?pattern ?(initially_dead = []) () =
    let refuse msg = raise (Not_explorable ("Explorer: " ^ msg)) in
    if A.uses_fd then refuse "algorithms with failure detectors are unsupported";
    if n > Sys.int_size - 2 then
      refuse "system too large for crash-set bitmasks";
    if not (List.for_all (Pid.valid ~n) initially_dead) then
      refuse "initially_dead pid out of range";
    Option.iter
      (fun pattern ->
        if
          List.exists
            (fun p ->
              match Failure_pattern.crash_time pattern p with
              | Some t when t > 0 -> true
              | Some _ | None -> false)
            (Pid.universe n)
        then refuse "only initial crashes are supported")
      pattern

  let dedup_hit ~reduction =
    Metrics.incr m_dedup;
    if reduction <> Canon.No_reduction then Metrics.incr m_orbit

  (* An elided idle step's successor has its parent's key, and the
     parent is admitted before it is expanded: count the dedup (and
     orbit) hit that successor always was. *)
  let idle_hit ~reduction =
    Metrics.incr m_idle;
    dedup_hit ~reduction

  (* Successors of a non-terminal configuration under [policy]: every
     (stepper, delivery-choice) pair.  [steppers] is constant over the
     whole search because only initial crashes are admitted.  An empty
     delivery {!E.idle_step} proves idle is not scheduled: its
     successor would be deduplicated against this very configuration
     when popped.  [k] receives each successor with [depth] (the
     successors' depth) and an empty sleep set. *)
  let schedule_successors ~reduction ~policy ~pattern ~steppers ~depth config
      k =
    List.iter
      (fun pid ->
        E.iter_batches policy config pid (fun deliver ->
            match deliver with
            | [] when E.idle_step ~pattern config pid -> idle_hit ~reduction
            | _ -> (
                match
                  E.apply ~pattern config (Adversary.Step { pid; deliver })
                with
                | Some config' -> k config' depth []
                | None -> assert false)))
      steppers

  let action_of config pid deliver =
    Canon.Action.make ~pid
      ~deliveries:(E.delivery_signature config deliver)
      ~sends:0

  (* DPOR expansion (Godefroid-style sleep sets) for the crash-free
     explorer.  Actions in [sleep] arrive provably covered: they were
     explored from an earlier sibling of this node, and every action
     executed on the path in between commutes with them
     ({!Canon.Action.independent}: distinct stepping pids, and neither
     action sends to the other's stepper — so along the path the slept
     action's pid kept its local state, its inbox, and therefore its
     offered batches under every delivery policy), so the interleaving
     they would start is a permutation of one already scheduled.  We
     skip them outright.  Each executed successor inherits the sleep
     set plus its already-executed earlier siblings — filtered down to
     the actions that commute with the executed one, whose send mask
     is read off the produced configuration (dependent actions wake
     up; in particular any slept action whose pid just received a
     send, since its offered batches changed).  Skipped (slept)
     siblings propagate through the inherited set, not through
     [executed]: they were never explored {e here}, only at the
     ancestor that put them to sleep.

     The always-offered empty delivery is special-cased: when it
     provably reproduces the parent key (the stepper is settled — no
     state change, no observable send), the successor is a self-loop
     in the keyed graph and is not scheduled at all.  Without this,
     every settled stepper re-admits the configuration once per
     distinct reachable sleep digest ("sleep-in-key" fragmentation).
     Dropping a self-loop prunes no states: the child {e is} the
     parent, and this very node explores everything outside its own
     sleep set while slept actions are covered at ancestors.  The
     transition memo answers most of these without a step
     ({!E.idle_step}); the rest are stepped and their keys compared.

     Sleep sets prune {e transitions}, never states: every reachable
     configuration is still reached (along the representative
     interleaving), so the decision-value oracle, terminal detection
     and violation checks are untouched.  The crash engine does not use
     this — its Stuck classification is a property of the full
     transition graph, which edge-pruning would distort. *)
  let schedule_successors_sleep ~reduction ~policy ~pattern ~steppers ~depth
      ~sleep ~parent_key config k =
    let executed = ref [] in
    List.iter
      (fun pid ->
        E.iter_batches policy config pid (fun deliver ->
            let act = action_of config pid deliver in
            if List.exists (Canon.Action.equal act) sleep then
              Metrics.incr m_sleep_pruned
            else if deliver = [] && E.idle_step ~pattern config pid then begin
              Metrics.incr m_idle;
              Metrics.incr m_noop_pruned
            end
            else
              match
                E.apply ~pattern config (Adversary.Step { pid; deliver })
              with
              | None -> assert false
              | Some config' ->
                  if
                    deliver = []
                    && E.key_equal (E.key ~reduction config') parent_key
                  then Metrics.incr m_noop_pruned
                  else begin
                    let act =
                      Canon.Action.with_sends act
                        (E.sends_between config config')
                    in
                    let child_sleep =
                      List.filter
                        (Canon.Action.independent act)
                        (List.rev_append !executed sleep)
                    in
                    k config' depth child_sleep;
                    executed := act :: !executed
                  end))
      steppers

  (* ---- the crash graph ---- *)

  (* The crashed set travels as a bitmask ({!Mask}) folded into the
     node key; node identities and graph edges are dense ints, never
     strings, and an expanded node is stored as one {!Row}. *)

  (* The successors of one crash-graph node, written as ints by
     {!expand_crash_node} into a worker's scratch and walked by
     [crash_step] last-written first.  Successor [j] is [kind.(j)] with
     operands [arg.(j)], [alt.(j)] and message ids [ids.(j)]:

     - [Idle]: the node itself — an empty delivery {!E.idle_step}
       proves idle has the node's own key.  The self-loop stays an
       edge of the graph: the walk records the node's id in its place,
       exactly the id its key would have found.
     - [Deliver]: pid [arg] steps, delivering [ids]; keyed before it
       is built.
     - [Crash]: victim [arg] joins the mask, its messages kept.
     - [Crash_drop]: the same, its in-flight messages [ids] dropped.
     - [Omit]: sender [arg]'s in-flight messages [ids] are omitted.
     - [Forge]: pending message [arg] takes forge-pool payload [alt].

     The configurations of the last four are built only when the walk
     reaches them, so none outlives its own admission. *)
  type move = Idle | Deliver | Crash | Crash_drop | Omit | Forge

  type moves = {
    mutable kind : move array;
    mutable arg : int array;
    mutable alt : int array;
    mutable ids : int list array;
    mutable len : int;
  }

  let moves () =
    {
      kind = Array.make 64 Idle;
      arg = Array.make 64 0;
      alt = Array.make 64 0;
      ids = Array.make 64 [];
      len = 0;
    }

  let add_move m kind arg alt ids =
    let j = m.len in
    if j = Array.length m.kind then begin
      let grow x fill =
        let y = Array.make (2 * j) fill in
        Array.blit x 0 y 0 j;
        y
      in
      m.kind <- grow m.kind Idle;
      m.arg <- grow m.arg 0;
      m.alt <- grow m.alt 0;
      m.ids <- grow m.ids []
    end;
    m.kind.(j) <- kind;
    m.arg.(j) <- arg;
    m.alt.(j) <- alt;
    m.ids.(j) <- ids;
    m.len <- j + 1

  (* the ids of move [j], cleared so the scratch keeps no list alive *)
  let take_ids m j =
    let ids = m.ids.(j) in
    m.ids.(j) <- [];
    ids

  (* Per-node expansion of the crash engine: decisions check,
     completeness, and the successors, written into [moves]; the
     undecided live pids.

     The fault model dispatches here and only here:

     - [Crash]: the baseline — the mask is the crashed set, growing
       within the budget, each new crash optionally paired with a
       drop of the victim's in-flight messages.
     - [Byzantine t]: the mask is the {e corrupted} set, grown by the
       same machinery with budget [t] (a corrupted process subsumes a
       crashed one: it may stop, its messages may be dropped), {e
       plus} forge successors — every pending message of a corrupted
       sender may have its payload replaced by any forge-pool entry.
       Byzantine behaviours are therefore a superset of crash
       behaviours at equal budget, and at budget 0 (no mask growth,
       hence no forgeable sender) the graph is bit-identical to the
       crash graph — both pinned by test/test_byzantine.ml.
     - [Mobile t]: nobody ever crashes (the mask never grows beyond
       the initially-dead base), but for [t >= 1] any sender's
       in-flight messages may be transiently omitted ([E.omit],
       ungated).  One omission per expansion suffices: the async
       interleaving composes single-sender omissions across steps
       into every faulty-set trajectory with at most [t] faulty
       processes per round, so the successor structure is the same
       for every [t >= 1].  At [t = 0] the graph coincides with the
       budget-0 crash graph. *)
  let expand_crash_node ~n ~policy ~drop_on_crash ~base_mask ~crash_budget
      ~model ~forge_alts ~pattern_of ~check moves config mask =
    let decisions = E.decisions config in
    (match check decisions with
    | Some reason -> raise (Verdict (decisions, reason, 0))
    | None -> ());
    let budget = Fault_model.budget_or ~crash_budget model in
    (* the live pids are the ones outside [mask]; the node is complete
       when every one of them has decided *)
    let undecided = ref 0 in
    for p = 0 to n - 1 do
      if (not (Mask.mem mask p)) && Option.is_none (E.decision_of config p)
      then undecided := Mask.add !undecided p
    done;
    let undecided = !undecided in
    moves.len <- 0;
    if undecided <> 0 then begin
      let pattern = pattern_of mask in
      for pid = 0 to n - 1 do
        if not (Mask.mem mask pid) then
          E.iter_batches policy config pid (fun deliver ->
              match deliver with
              | [] when E.idle_step ~pattern config pid ->
                  add_move moves Idle 0 0 []
              | _ -> add_move moves Deliver pid 0 deliver)
      done;
      (* one pass over the pending multiset buckets messages by sender
         for the drop-on-crash / omission successors *)
      let by_src_of () =
        let a = Array.make n [] in
        List.iter
          (fun (e : A.message Envelope.t) -> a.(e.src) <- e.id :: a.(e.src))
          (E.pending config);
        a
      in
      (match model with
      | Fault_model.Crash | Fault_model.Byzantine _ ->
          if Mask.popcount mask - Mask.popcount base_mask < budget then begin
            let by_src = if drop_on_crash then by_src_of () else [||] in
            for victim = 0 to n - 1 do
              if not (Mask.mem mask victim) then begin
                add_move moves Crash victim 0 [];
                if drop_on_crash && by_src.(victim) <> [] then
                  add_move moves Crash_drop victim 0 by_src.(victim)
              end
            done
          end
      | Fault_model.Mobile t ->
          if t > 0 then begin
            let by_src = by_src_of () in
            for s = 0 to n - 1 do
              if by_src.(s) <> [] then add_move moves Omit s 0 by_src.(s)
            done
          end);
      match model with
      | Fault_model.Byzantine _ when forge_alts > 0 ->
          List.iter
            (fun (e : A.message Envelope.t) ->
              if Mask.mem mask e.src then
                for alt = 0 to forge_alts - 1 do
                  add_move moves Forge e.id alt []
                done)
            (E.pending config)
      | Fault_model.Byzantine _ | Fault_model.Crash | Fault_model.Mobile _ ->
          ()
    end;
    undecided

  (* The verdict of a finished crash campaign; [recs] reads its node
     graph by id.  A truncated graph cannot be classified:
     stuck-ness is a property of {e all} continuations, and unexpanded
     frontier nodes would read as stuck while truly-stuck nodes may
     hide beyond the cut.  Say so instead of claiming the optimistic
     verdict. *)
  let graph_outcome ~n stats recs =
    if stats.budget_exhausted then Indeterminate stats
    else
      match Row.classify ~count:stats.configs_visited recs with
      | Some (mask, undecided) ->
          Stuck
            {
              crashed = Mask.to_list ~n mask;
              undecided_correct = Mask.to_list ~n undecided;
              stats;
            }
      | None -> All_paths_decide stats

  (* memoised initial-dead failure patterns, one per crashed-set mask *)
  let make_pattern_of ~n =
    let patterns : (int, Failure_pattern.t) Hashtbl.t = Hashtbl.create 64 in
    fun mask ->
      match Hashtbl.find patterns mask with
      | p -> p
      | exception Not_found ->
          let p =
            Failure_pattern.initial_dead ~n ~dead:(Mask.to_list ~n mask)
          in
          Hashtbl.add patterns mask p;
          p

  (* ---- the driver ----

     One body runs both engines: {!drive}.  An engine passes in its
     root, its per-worker step and the extra tables it keeps, and
     makes its own outcome of the verdict or stats returned. *)

  (* A crash-free work item: a {e candidate} (configuration, depth,
     sleep set), admitted when popped, or a configuration already
     admitted, with its bare key, whose expansion failed and was put
     back ({!Workers.requeue}). *)
  type free_item =
    | Cand of E.config * int * Canon.Action.t list
    | Held of E.config * int * Canon.Action.t list * E.key

  (* A crash-graph work item: a node admitted before it was queued —
     its id, configuration and crashed mask. *)
  type crash_item = int * E.config * int

  (* The checkpoint payload of either engine.  [engine] is checked
     first, then the reduction mode and the fault-model tag: [pending]
     holds items of the writing engine's type, so a payload is used
     only once all three match, and otherwise the driver warns and
     starts fresh.  [keys] are the admitted keys indexed by id (ids are
     dense tickets; none is refunded).  The crash-free engine adds its
     counted-terminal and admitted bare keys, the crash engine its
     node rows up to [count] (unexpanded ids read as [Row.empty]).
     [pending] lists the items in pop order; crash-free candidates
     among them are not yet admitted, so resume re-applies dedup and
     the budget as the uninterrupted run would have. *)
  type 'i payload = {
    engine : string;
    reduction : Canon.reduction;
    model : string; (* Fault_model.to_string of the campaign's model *)
    keys : E.key array;
    terminal : E.key array;
    bare : E.key array;
    recs : Row.t array;
    count : int;
    terminals : int;
    exhausted : bool;
    pending : 'i list;
  }

  (* What a run's workers share. *)
  type run = {
    seen : Shardset.t;
    ticket : unit -> int;
    reduction : Canon.reduction;
    terminals : int Atomic.t;
  }

  (* What an engine passes the driver: a fresh campaign's worklist
     ([[]] when the budget turned its root away), the step [make]s each
     worker's item processor, and the engine's tables added to a
     payload. *)
  type 'i engine = {
    root : unit -> 'i list;
    make : 'i Workers.w -> 'i -> unit;
    save : 'i payload -> 'i payload;
  }

  (* A table holding [keys], each bound to its index when [ids] and to
     0 otherwise, sized so that restoring them never resizes it. *)
  let restore_set ~name ~capacity ~ids keys =
    let s =
      Shardset.create ~name ~capacity:(max capacity (2 * Array.length keys)) ()
    in
    Array.iteri
      (fun i k -> ignore (Shardset.add s k (if ids then i else 0)))
      keys;
    s

  (* The counted admission of [key] into the run's table — of the
     scratch buffer's first [len] bytes when [key] is [""], probed there
     and copied out only when new: {!Shardset.admit_bytes}'s answer.
     The caller marks its worker exhausted on {!Shardset.refused}. *)
  let admit run key len =
    let r =
      if String.length key = 0 then
        Shardset.admit_bytes run.seen (Canon.key_buffer ()) len
          ~ticket:run.ticket
      else Shardset.admit_key run.seen key ~ticket:run.ticket
    in
    if r >= 0 then dedup_hit ~reduction:run.reduction
    else if r = Shardset.refused then Metrics.incr m_truncations
    else Metrics.incr m_admitted;
    r

  (* The one driver body, on {!Workers} at every domain count.  It
     decodes a resumed payload, restores the table (same ids), the
     counters and the worklist, or seeds [start]'s fresh root; runs the
     workers; merges each cut into a payload; and returns the
     shallowest verdict, or the stats, published as gauges.  [start]
     sees the run and the payload (an empty one when fresh), restores
     the engine's own tables from it, and returns the engine. *)
  let drive ~engine ~model ~reduction ~domains ~max_configs ~ckpt ~resume
      start =
    Metrics.gauge_set g_max_configs max_configs;
    let model = Fault_model.to_string model in
    let resumed =
      Option.bind resume (fun s ->
          let p = (Marshal.from_string s 0 : _ payload) in
          let mismatch =
            (* the engine alone first: only this engine's payload has
               the fields behind it (a fuzz payload has an int there) *)
            if p.engine <> engine then Some ("engine", engine, p.engine)
            else
              List.find_opt
                (fun (_, want, got) -> want <> got)
                [
                  ( "--reduction",
                    Canon.reduction_to_string reduction,
                    Canon.reduction_to_string p.reduction );
                  ("--model", model, p.model);
                ]
          in
          match mismatch with
          | Some (flag, want, got) ->
              Checkpoint.warn_mismatch ~flag ~want ~got;
              None
          | None -> Some p)
    in
    let empty =
      {
        engine;
        reduction;
        model;
        keys = [||];
        terminal = [||];
        bare = [||];
        recs = [||];
        count = 0;
        terminals = 0;
        exhausted = false;
        pending = [];
      }
    in
    let p = Option.value resumed ~default:empty in
    let seen =
      restore_set ~name:"explore.dedup" ~capacity:65_536 ~ids:true p.keys
    in
    let rt = Workers.create ~domains ~max_configs ~seen () in
    Atomic.set rt.Workers.count p.count;
    let run =
      {
        seen;
        ticket = Workers.ticket rt;
        reduction;
        terminals = Atomic.make p.terminals;
      }
    in
    let e = start run p in
    (* set when budget was turned away before this run: by the resumed
       campaign, or at the root *)
    let exhausted0 =
      match resumed with
      | Some p ->
          Workers.seed rt p.pending;
          p.exhausted
      | None -> (
          match e.root () with
          | [] -> true
          | root ->
              Workers.seed rt root;
              false)
    in
    (* a cut: the shared table gives each id's key *)
    let merge ~pending ~exhausted =
      let count = Workers.count rt in
      let keys = Array.make count "" in
      Shardset.iter (fun k id -> keys.(id) <- k) seen;
      Marshal.to_string
        (e.save
           {
             empty with
             keys;
             count;
             terminals = Atomic.get run.terminals;
             exhausted = exhausted || exhausted0;
             pending;
           })
        []
    in
    match Workers.run rt ~ckpt ~merge e.make with
    | v :: vs, _ ->
        (* the shallowest violation any worker found, the first on ties *)
        Error
          (List.fold_left
             (fun ((_, _, db) as best) ((_, _, dv) as v) ->
               if dv < db then v else best)
             v vs)
    | [], exhausted ->
        let stats =
          {
            configs_visited = Workers.count rt;
            terminal_runs = Atomic.get run.terminals;
            budget_exhausted = exhausted || exhausted0;
          }
        in
        record_run_stats stats;
        Ok stats

  (* ---- crash-free exploration ---- *)

  (* The crash-free step.  A candidate's dedup key is its (possibly
     orbit) configuration key [bare], plus — when sleep sets are active
     — the exact serialized sleep set, so a configuration re-reached
     under a different sleep set is re-expanded rather than wrongly
     deduped against a run that pruned differently.  Both are written
     into the scratch buffer, one after the other, and probed there
     lock-free: a dedup hit allocates nothing.

     An admitted configuration is expanded: the decisions check,
     completeness over the [correct] processes, the [max_depth] cut,
     and the successors under the scheduler [reduction] selects, pushed
     newest first so that they pop in generation order — one domain
     walks exactly the depth-first order of the recursive search.
     [term_set] and [bare_set] hold bare (sleep-free) keys: under
     sym+por one configuration can be admitted once per distinct sleep
     digest, but it is one terminal state and one distinct
     configuration.  [term_set] makes terminal counting and [found]
     fire once per configuration, absorbing the re-expansion of a
     requeued [Held] item too; [bare_set] feeds the sleep-readmission
     counter.  [found.(w.i)] collects worker [w]'s terminal decision
     sets, newest first, unless [found] is empty. *)
  let free_step run ~term_set ~bare_set ~found ~policy ~pattern ~max_depth
      ~check (w : _ Workers.w) =
    let reduction = run.reduction in
    let correct = Failure_pattern.correct pattern in
    let succs = ref [] and push_item = Workers.push w in
    let push config depth sleep =
      succs := Cand (config, depth, sleep) :: !succs
    in
    let expand config depth sleep bare =
      Metrics.gauge_max g_depth_peak depth;
      let decisions = E.decisions config in
      (match check decisions with
      | Some reason -> raise (Verdict (decisions, reason, depth))
      | None -> ());
      if List.for_all (fun p -> E.decision_of config p <> None) correct
      then begin
        if Shardset.add term_set bare 0 then begin
          Atomic.incr run.terminals;
          Metrics.incr m_terminals;
          if Array.length found > 0 then
            found.(w.i) <- decisions :: found.(w.i)
        end
      end
      else if depth >= max_depth then w.exhausted <- true
      else begin
        succs := [];
        (match reduction with
        | Canon.Symmetry_por ->
            schedule_successors_sleep ~reduction ~policy ~pattern
              ~steppers:correct ~depth:(depth + 1) ~sleep ~parent_key:bare
              config push
        | Canon.No_reduction | Canon.Symmetry ->
            schedule_successors ~reduction ~policy ~pattern ~steppers:correct
              ~depth:(depth + 1) config push);
        List.iter push_item !succs;
        Workers.maybe_spill w
      end
    in
    (* the bare key of a newly admitted candidate, or [""] *)
    let admit_candidate config sleep =
      let bare_len = E.write_key ~crashed:0 ~reduction config in
      let len =
        match reduction with
        | Canon.Symmetry_por -> Canon.Action.write_digest sleep ~at:bare_len
        | Canon.No_reduction | Canon.Symmetry -> bare_len
      in
      let b = Canon.key_buffer () in
      if Shardset.mem_bytes run.seen b len then begin
        dedup_hit ~reduction;
        ""
      end
      else
        let bare = Bytes.sub_string b 0 bare_len in
        let key = if len = bare_len then bare else Bytes.sub_string b 0 len in
        let r = admit run key len in
        if r >= 0 then ""
        else if r = Shardset.refused then begin
          w.exhausted <- true;
          ""
        end
        else begin
          (match reduction with
          | Canon.Symmetry_por ->
              if not (Shardset.add bare_set bare 0) then
                Metrics.incr m_sleep_readmit
          | Canon.No_reduction | Canon.Symmetry -> ());
          bare
        end
    in
    function
    | Cand (config, depth, sleep) as item -> (
        match admit_candidate config sleep with
        | exception e -> Workers.requeue w item e
        | "" -> ()
        | bare -> (
            try expand config depth sleep bare
            with e -> Workers.requeue w (Held (config, depth, sleep, bare)) e))
    | Held (config, depth, sleep, bare) as item -> (
        try expand config depth sleep bare with e -> Workers.requeue w item e)

  let members s =
    let a = Array.make (Shardset.length s) "" and i = ref 0 in
    Shardset.iter
      (fun k _ ->
        a.(!i) <- k;
        incr i)
      s;
    a

  let explore ?(reduction = Canon.No_reduction) ?(domains = 1)
      ?(max_depth = 200) ?(max_configs = 2_000_000) ?(policy = Per_sender)
      ?on_terminal ?(ckpt = Checkpoint.ctl ()) ?resume ~n ~inputs ~pattern
      ~check () =
    require_explorable ~n ~pattern ();
    let found =
      if Option.is_some on_terminal then Array.make (max 1 domains) [] else [||]
    in
    match
      drive ~engine:"explore" ~model:Fault_model.Crash ~reduction ~domains
        ~max_configs ~ckpt ~resume (fun run p ->
          let term_set =
            restore_set ~name:"explore.terminal" ~capacity:1_024 ~ids:false
              p.terminal
          in
          let bare_set =
            restore_set ~name:"explore.bare" ~capacity:1_024 ~ids:false p.bare
          in
          {
            root =
              (fun () ->
                [
                  Cand (E.init ~record:false ~reduction ~n ~inputs (), 0, []);
                ]);
            make =
              free_step run ~term_set ~bare_set ~found ~policy ~pattern
                ~max_depth ~check;
            save =
              (fun p ->
                {
                  p with
                  terminal = members term_set;
                  bare = members bare_set;
                });
          })
    with
    | Error (decisions, reason, depth) -> Violation { decisions; reason; depth }
    | Ok stats ->
        Option.iter
          (fun f -> Array.iter (fun l -> List.iter f (List.rev l)) found)
          on_terminal;
        Safe stats

  (* ---- crash-adversarial exploration ---- *)

  (* The crash step.  A node's global dense id {e is} its admission
     ticket (the root, admitted first, is id 0), so graph edges are
     globally meaningful the moment they are made and classification
     needs no id translation — the classified graph is the same at every
     domain count modulo discovery order, which {!Row.classify}'s
     minimum-witness rule already normalises.  Every successor is
     admitted before it is queued; its row is written to [recs] when it
     is expanded, from the successor ids gathered in the worker's
     [scratch]. *)
  let crash_step run ~recs ~n ~policy ~drop_on_crash ~base_mask ~crash_budget
      ~model ~forge_alts ~check (w : _ Workers.w) =
    let reduction = run.reduction in
    let pattern_of = make_pattern_of ~n in
    let scratch = ref (Array.make 64 0) in
    (* The successor's id, or -1 when the budget turned it away; a
       new one is queued. *)
    let visit config mask =
      let r = admit run "" (E.write_key ~crashed:mask ~reduction config) in
      if r >= 0 then r
      else if r = Shardset.refused then begin
        w.exhausted <- true;
        -1
      end
      else begin
        Workers.push w (lnot r, config, mask);
        lnot r
      end
    in
    (* The same for a delivery step of [config], keyed before it is
       built: a dedup hit costs a memo probe, a key write and a table
       probe, and allocates nothing. *)
    let visit_step config mask pattern pid deliver =
      let o = E.step ~pattern config pid deliver in
      let r =
        admit run ""
          (E.write_step_key ~crashed:mask ~reduction config pid deliver o)
      in
      if r >= 0 then r
      else if r = Shardset.refused then begin
        w.exhausted <- true;
        -1
      end
      else begin
        Workers.push w (lnot r, E.commit config pid deliver o, mask);
        lnot r
      end
    in
    let moves = moves () in
    (* the configuration a built move leads to *)
    let built = function Some config' -> config' | None -> assert false in
    let expand id config mask =
      let undecided =
        expand_crash_node ~n ~policy ~drop_on_crash ~base_mask ~crash_budget
          ~model ~forge_alts ~pattern_of ~check moves config mask
      in
      let pattern = pattern_of mask in
      if moves.len > Array.length !scratch then
        scratch := Array.make (max moves.len (2 * Array.length !scratch)) 0;
      let succs = !scratch in
      let len = ref 0 in
      for j = moves.len - 1 downto 0 do
        let arg = moves.arg.(j) in
        let s =
          match moves.kind.(j) with
          | Idle ->
              idle_hit ~reduction;
              id
          | Deliver -> visit_step config mask pattern arg (take_ids moves j)
          | Crash -> visit config (Mask.add mask arg)
          | Crash_drop ->
              let mask' = Mask.add mask arg in
              visit
                (built
                   (E.apply ~pattern:(pattern_of mask') config
                      (Adversary.Drop (take_ids moves j))))
                mask'
          | Omit -> visit (E.omit config (take_ids moves j)) mask
          | Forge ->
              visit
                (built
                   (E.apply ~pattern config
                      (Adversary.Forge { id = arg; alt = moves.alt.(j) })))
                mask
        in
        if s >= 0 then begin
          succs.(!len) <- s;
          incr len
        end
      done;
      (* a requeued node is expanded again: count its terminal only on
         the store's first write, so [terminal_runs] is idempotent per
         id.  No expanded row reads as [Row.empty], and only one domain
         can hold id at a time (handoff through the pool orders the
         re-expansion after the death). *)
      let first_write = Row.is_empty (Nodestore.get recs id) in
      Nodestore.set recs id (Row.make ~mask ~undecided succs !len);
      if undecided = 0 && first_write then begin
        Atomic.incr run.terminals;
        Metrics.incr m_terminals
      end;
      Workers.maybe_spill w
    in
    fun ((id, config, mask) as item : crash_item) ->
      try expand id config mask with e -> Workers.requeue w item e

  let explore_with_crashes ?(reduction = Canon.No_reduction)
      ?(model = Fault_model.Crash) ?(domains = 1) ?(max_configs = 300_000)
      ?(policy = Per_sender) ?(drop_on_crash = true) ?(initially_dead = [])
      ?(ckpt = Checkpoint.ctl ()) ?resume ~n ~inputs ~crash_budget ~check () =
    require_explorable ~n ~initially_dead ();
    if max_configs > Row.max_nodes then
      raise
        (Not_explorable
           (Printf.sprintf
              "Explorer: max_configs above %d: crash-graph ids are int32"
              Row.max_nodes));
    let base_mask = List.fold_left Mask.add 0 initially_dead in
    let forge_alts =
      match model with
      | Fault_model.Byzantine _ -> List.length (E.forge_pool ~n ~inputs)
      | Fault_model.Crash | Fault_model.Mobile _ -> 0
    in
    let recs : Row.t Nodestore.t = Nodestore.create ~empty:Row.empty in
    match
      drive ~engine:"explore-crash" ~model ~reduction ~domains ~max_configs
        ~ckpt ~resume (fun run p ->
          (* an unexpanded slot stays unwritten *)
          Array.iteri
            (fun id r -> if not (Row.is_empty r) then Nodestore.set recs id r)
            p.recs;
          {
            root =
              (fun () ->
                (* the root draws ticket 0 like any node; a budget below
                   one turns it away, leaving nothing to expand *)
                let root = E.init ~record:false ~reduction ~n ~inputs () in
                let r =
                  admit run "" (E.write_key ~crashed:base_mask ~reduction root)
                in
                if r < 0 && r <> Shardset.refused then
                  [ (lnot r, root, base_mask) ]
                else []);
            make =
              crash_step run ~recs ~n ~policy ~drop_on_crash ~base_mask
                ~crash_budget ~model ~forge_alts ~check;
            save =
              (fun p ->
                { p with recs = Array.init p.count (Nodestore.get recs) });
          })
    with
    | Error (decisions, reason, _) -> Safety_violation { decisions; reason }
    | Ok stats -> graph_outcome ~n stats (Nodestore.get recs)

  let explore_with_crashes_par ?domains =
    explore_with_crashes
      ~domains:(Option.value domains ~default:(default_domains ()))

  let reachable_decision_values ?(reduction = Canon.No_reduction)
      ?(model = Fault_model.Crash) ?(max_configs = 300_000)
      ?(policy = Per_sender) ~n ~inputs ~crash_budget () =
    let seen = ref [] in
    let note decisions =
      List.iter
        (fun (_, v, _) -> if not (List.mem v !seen) then seen := v :: !seen)
        decisions
    in
    ignore
      (explore_with_crashes ~reduction ~model ~max_configs ~policy ~n ~inputs
         ~crash_budget
         ~check:(fun decisions ->
           note decisions;
           None)
         ()
        : resilient_outcome);
    List.sort compare !seen
end
