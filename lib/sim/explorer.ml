module Metrics = Ksa_prim.Metrics
module Backoff = Ksa_prim.Backoff

type delivery_policy = Empty_or_all | Per_sender | All_subsets

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
end

(* ---- instrumentation (process-global, shared by all drivers) ----

   Live counters tick during the search and feed progress reporting;
   in the parallel drivers admission is exactly-once (dedup check and
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

let default_domains () =
  match Sys.getenv_opt "KSA_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> d
      | Some _ | None -> 1)
  | None -> Domain.recommended_domain_count ()

(* ---- pause-the-world coordination for the parallel drivers ----

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

(* The checkpoint/interrupt coordinator of a parallel driver: a small
   ticker domain.  When a periodic write is due it stops the world,
   merges the worker slots into a sequential-format payload and
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

let stop_coordinator = function
  | None -> ()
  | Some (quit, d) ->
      Atomic.set quit true;
      Domain.join d

module Shardset = Ksa_prim.Shardset

(* ---- batched work-stealing frontier for the parallel drivers ----

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

  let own_pending t i = Atomic.get t.sizes.(i)
  let pending t = Array.fold_left (fun acc s -> acc + Atomic.get s) 0 t.sizes

  (* Take half the victim's batches: the oldest becomes the thief's
     working set, the rest are re-homed into the thief's own pool
     (after the victim's lock is released — locks never nest). *)
  let steal t i =
    let workers = Array.length t.queues in
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
     first steals move real work *)
  let seed t items =
    let workers = Array.length t.queues in
    let batch = ref [] and blen = ref 0 and w = ref 0 in
    let flush () =
      if !blen > 0 then begin
        push_batch t !w ~count:!blen !batch;
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

(* spill once the private stack holds this many items (handing off
   the oldest half) *)
let spill_at = 64

(* first [k] elements kept, the rest handed off; [k] is at most
   [spill_at], so non-tail recursion is fine *)
let rec split_at k l =
  if k = 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: tl ->
        let a, b = split_at (k - 1) tl in
        (x :: a, b)

module Make (A : Algorithm.S) = struct
  module E = Engine.Make (A)

  exception Found of (Pid.t * Value.t * int) list * string * int

  (* All 2^|xs| sublists, built with rev_append/rev_map only: linear
     in the size of the output, no quadratic [acc @ ...] rebuilding. *)
  let subsets xs =
    List.fold_left
      (fun acc x -> List.rev_append (List.rev_map (fun s -> x :: s) acc) acc)
      [ [] ] xs

  (* Delivery choices for a process whose buffer holds [mine]
     ((id, src) pairs in sending order): lists of message ids.
     [Per_sender] offers one bucket per sender, senders in order of
     first appearance, each bucket in sending order.  A buffer names
     at most n senders, so the buckets are list scans, not a table. *)
  let choices policy mine =
    match policy with
    | Empty_or_all -> (
        match mine with [] -> [ [] ] | _ -> [ []; List.map fst mine ])
    | Per_sender ->
        let rec senders seen = function
          | [] -> List.rev seen
          | (_, s) :: tl ->
              senders (if List.mem s seen then seen else s :: seen) tl
        in
        let rec bucket s = function
          | [] -> []
          | (id, src) :: tl -> if src = s then id :: bucket s tl else bucket s tl
        in
        let senders = senders [] mine in
        let per_sender = List.map (fun s -> bucket s mine) senders in
        let all =
          match senders with
          | _ :: _ :: _ -> [ List.map fst mine ]
          | _ -> []
        in
        ([] :: per_sender) @ all
    | All_subsets -> subsets (List.map fst mine)

  let require_explorable ~n ~pattern =
    if A.uses_fd then
      invalid_arg "Explorer: algorithms with failure detectors are unsupported";
    if
      List.exists
        (fun p ->
          match Failure_pattern.crash_time pattern p with
          | Some t when t > 0 -> true
          | Some _ | None -> false)
        (Pid.universe n)
    then invalid_arg "Explorer: only initial crashes are supported"

  (* An elided idle step's successor has its parent's key, and the
     parent is admitted before it is expanded: count the dedup (and
     orbit) hit that successor always was. *)
  let idle_hit ~reduction =
    Metrics.incr m_idle;
    Metrics.incr m_dedup;
    if reduction <> Canon.No_reduction then Metrics.incr m_orbit

  (* Successors of a non-terminal configuration under [policy]: every
     (stepper, delivery-choice) pair.  [steppers] is constant over the
     whole search because only initial crashes are admitted.  An empty
     delivery {!E.idle_step} proves idle is not scheduled: its
     successor would be deduplicated against this very configuration
     when popped. *)
  let schedule_successors ~reduction ~policy ~pattern ~steppers config k =
    List.iter
      (fun pid ->
        let mine = E.inbox config pid in
        List.iter
          (fun deliver ->
            match deliver with
            | [] when E.idle_step ~pattern config pid -> idle_hit ~reduction
            | _ -> (
                match
                  E.apply ~pattern config (Adversary.Step { pid; deliver })
                with
                | Some config' -> k config'
                | None -> assert false))
          (choices policy mine))
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
     and violation checks are untouched.  The crash drivers do not use
     this — their Stuck classification is a property of the full
     transition graph, which edge-pruning would distort. *)
  let schedule_successors_sleep ~reduction ~policy ~pattern ~steppers ~sleep
      ~parent_key config k =
    let executed = ref [] in
    List.iter
      (fun pid ->
        let mine = E.inbox config pid in
        List.iter
          (fun deliver ->
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
                    k config' child_sleep;
                    executed := act :: !executed
                  end)
          (choices policy mine))
      steppers

  (* the dedup key of an [explore] work item: the (possibly orbit)
     configuration key [bare], plus — when sleep sets are active — the
     exact serialized sleep set, so a configuration re-reached under a
     different sleep set is re-expanded rather than wrongly deduped
     against a run that pruned differently *)
  let admission_key ~reduction bare sleep =
    match (reduction : Canon.reduction) with
    | Symmetry_por -> bare ^ Canon.Action.digest sleep
    | No_reduction | Symmetry -> bare

  (* ---- sequential exhaustive exploration ---- *)

  (* Checkpoint payload of an [explore] campaign: the reduction mode,
     the dedup table, the counted-terminal and admitted bare-key
     tables (so resumed runs keep terminal counting and the
     fragmentation metric exactly-once per configuration), the
     counters, and the stack of {e candidate} (configuration, depth,
     sleep set) items — popped but not yet admitted, so resume
     re-applies dedup and the budget exactly as the uninterrupted run
     would have.  The parallel driver merges its worker states into
     this same format, and every resume continues on the sequential
     driver.  A payload written under a different reduction mode
     describes a different search — warn and start fresh, like a
     corrupt checkpoint. *)
  type explore_snap =
    Canon.reduction
    * (E.key, unit) Hashtbl.t
    * (E.key, unit) Hashtbl.t
    * (E.key, unit) Hashtbl.t
    * int
    * int
    * bool
    * (E.config * int * Canon.Action.t list) list

  let warn_reduction_mismatch ~want ~got =
    Printf.eprintf
      "ksa: checkpoint was written under --reduction %s, not %s — starting a \
       fresh campaign\n\
       %!"
      (Canon.reduction_to_string got)
      (Canon.reduction_to_string want)

  (* Same policy for the fault model: a payload written under a
     different --model describes a different search. *)
  let warn_model_mismatch ~want ~got =
    Printf.eprintf
      "ksa: checkpoint was written under --model %s, not %s — starting a \
       fresh campaign\n\
       %!"
      got
      (Fault_model.to_string want)

  let explore ?(reduction = Canon.No_reduction) ?(max_depth = 200)
      ?(max_configs = 2_000_000) ?(policy = Per_sender)
      ?(on_terminal = fun _ -> ()) ?(ckpt = Checkpoint.ctl ()) ?resume ~n
      ~inputs ~pattern ~check () =
    require_explorable ~n ~pattern;
    Metrics.gauge_set g_max_configs max_configs;
    let fresh () =
      ( Hashtbl.create 65_536,
        Hashtbl.create 1_024,
        Hashtbl.create 4_096,
        0,
        0,
        false,
        [ (E.init_explore ~reduction ~n ~inputs (), 0, []) ] )
    in
    let seen, term_seen, bare_seen, visited0, terminals0, exhausted0, stack0 =
      match resume with
      | Some payload ->
          let mode, seen, tm, br, v, t, e, st =
            (Marshal.from_string payload 0 : explore_snap)
          in
          if mode <> reduction then begin
            warn_reduction_mismatch ~want:reduction ~got:mode;
            fresh ()
          end
          else (seen, tm, br, v, t, e, st)
      | None -> fresh ()
    in
    let visited = ref visited0 in
    let terminals = ref terminals0 in
    let exhausted = ref exhausted0 in
    let interrupted = ref false in
    let stack = ref stack0 in
    let snap () =
      Marshal.to_string
        (( reduction,
           seen,
           term_seen,
           bare_seen,
           !visited,
           !terminals,
           !exhausted,
           !stack )
          : explore_snap)
        []
    in
    let correct = Failure_pattern.correct pattern in
    (* Admission is clamped at the budget {e before} a configuration
       is counted (matching the dense-id [visit] of the crash
       drivers): [configs_visited] never overshoots [max_configs],
       and [budget_exhausted] is set only when an unseen reachable
       configuration was actually turned away.  The stack pops
       candidates in exactly the order the recursive formulation
       visited them (successors are pushed in reverse generation
       order), so verdicts, depths and stats are unchanged. *)
    let rec loop () =
      match !stack with
      | [] -> ()
      | _ when Checkpoint.interrupted ckpt ->
          Checkpoint.flush ckpt snap;
          interrupted := true
      | (config, depth, sleep) :: rest ->
          stack := rest;
          let bare = E.key ~reduction config in
          let key = admission_key ~reduction bare sleep in
          if Hashtbl.mem seen key then begin
            Metrics.incr m_dedup;
            if reduction <> Canon.No_reduction then Metrics.incr m_orbit
          end
          else if !visited >= max_configs then begin
            exhausted := true;
            Metrics.incr m_truncations
          end
          else begin
            Hashtbl.add seen key ();
            (match reduction with
            | Canon.Symmetry_por ->
                if Hashtbl.mem bare_seen bare then Metrics.incr m_sleep_readmit
                else Hashtbl.add bare_seen bare ()
            | Canon.No_reduction | Canon.Symmetry -> ());
            incr visited;
            Metrics.incr m_admitted;
            Metrics.gauge_max g_depth_peak depth;
            let decisions = E.decisions config in
            (match check decisions with
            | Some reason -> raise (Found (decisions, reason, depth))
            | None -> ());
            let done_ =
              List.for_all (fun p -> E.decision_of config p <> None) correct
            in
            if done_ then begin
              (* terminals are keyed by the bare configuration key:
                 under sym+por the same terminal configuration can be
                 admitted once per distinct sleep digest, but it is
                 one terminal state, counted (and reported) once *)
              if not (Hashtbl.mem term_seen bare) then begin
                Hashtbl.add term_seen bare ();
                incr terminals;
                Metrics.incr m_terminals;
                on_terminal decisions
              end
            end
            else if depth >= max_depth then exhausted := true
            else begin
              let succs = ref [] in
              (match reduction with
              | Canon.Symmetry_por ->
                  schedule_successors_sleep ~reduction ~policy ~pattern
                    ~steppers:correct ~sleep ~parent_key:bare config
                    (fun config' sleep' ->
                      succs := (config', depth + 1, sleep') :: !succs)
              | Canon.No_reduction | Canon.Symmetry ->
                  schedule_successors ~reduction ~policy ~pattern
                    ~steppers:correct config (fun config' ->
                      succs := (config', depth + 1, []) :: !succs));
              stack := List.rev_append !succs !stack
            end;
            Checkpoint.tick ckpt ~items:!visited snap
          end;
          loop ()
    in
    match loop () with
    | () ->
        if !interrupted then exhausted := true;
        let stats =
          {
            configs_visited = !visited;
            terminal_runs = !terminals;
            budget_exhausted = !exhausted;
          }
        in
        record_run_stats stats;
        Safe stats
    | exception Found (decisions, reason, depth) ->
        Violation { decisions; reason; depth }

  (* ---- parallel exhaustive exploration ----

     Every domain admits configurations against one shared {!Shardset}
     table with one ticket-clamped admission counter, so each
     reachable configuration is admitted and expanded exactly once:
     the visited set — and with it verdict and stats — equals the
     sequential driver's whenever no budget truncates, and parallelism
     buys wall-clock instead of duplicated work.  The frontier flows
     through a {!Wspool}: private LIFO stacks, batched spills, and
     half-the-batches stealing with idle-count termination.  [check]
     runs concurrently and must be thread-safe. *)
  let explore_par ?(reduction = Canon.No_reduction) ?domains
      ?(max_depth = 200) ?(max_configs = 2_000_000) ?(policy = Per_sender)
      ?(on_terminal = fun _ -> ()) ?(ckpt = Checkpoint.ctl ()) ~n ~inputs
      ~pattern ~check () =
    require_explorable ~n ~pattern;
    Metrics.gauge_set g_max_configs max_configs;
    let domains =
      max 1 (match domains with Some d -> d | None -> default_domains ())
    in
    let correct = Failure_pattern.correct pattern in
    let seen = Shardset.create ~name:"explore.dedup" () in
    (* terminal configurations and admitted bare keys, both keyed by
       the bare (sleep-free) configuration key: under sym+por one
       configuration can be admitted once per distinct sleep digest,
       but it is one terminal state / one distinct configuration.
       [term_set] makes terminal counting and [on_terminal] fire once
       per configuration (this also absorbs orphan re-expansions);
       [bare_set] feeds the sleep-readmission counter. *)
    let term_set = Shardset.create ~name:"explore.terminal" () in
    let bare_set = Shardset.create ~name:"explore.bare" () in
    (* Keys admitted to the shared table whose expansion a dying
       worker cut short: the ticket stands and the in-flight item goes
       back to the pool, but its successors were never generated.
       Whoever re-processes the item hits [Found] in the table;
       membership here tells them to expand it anyway instead of
       dropping it as a duplicate — without this the dead worker's
       whole subtree would be silently lost while the run still
       reported [Safe].  Touched only on the failure path, so a
       mutex-guarded table is plenty. *)
    let orphans : (E.key, unit) Hashtbl.t = Hashtbl.create 8 in
    let orphans_lock = Mutex.create () in
    (* [orphan_take] sits on the dedup-hit hot path, so the common
       all-workers-healthy case must stay lock-free: [orphans_n] is a
       conservative size mirror, and a re-processor of an orphaned
       item always observes its increment (the handoff through the
       pool mutex orders [orphan_add] before the re-process). *)
    let orphans_n = Atomic.make 0 in
    let orphan_add key =
      Mutex.lock orphans_lock;
      if not (Hashtbl.mem orphans key) then begin
        Hashtbl.replace orphans key ();
        Atomic.incr orphans_n
      end;
      Mutex.unlock orphans_lock
    in
    let orphan_take key =
      Atomic.get orphans_n > 0
      && begin
           Mutex.lock orphans_lock;
           let hit = Hashtbl.mem orphans key in
           if hit then begin
             Hashtbl.remove orphans key;
             Atomic.decr orphans_n
           end;
           Mutex.unlock orphans_lock;
           hit
         end
    in
    let orphan_keys () =
      Mutex.lock orphans_lock;
      let keys = Hashtbl.fold (fun k () acc -> k :: acc) orphans [] in
      Mutex.unlock orphans_lock;
      keys
    in
    let global_count = Atomic.make 0 in
    let terminals_n = Atomic.make 0 in
    let stop = Atomic.make false in
    let interrupted = ref false in
    let pause = Pause.create domains in
    let pool : (E.config * int * Canon.Action.t list) Wspool.t =
      Wspool.create ~workers:domains
    in
    Wspool.seed pool [ (E.init_explore ~reduction ~n ~inputs (), 0, []) ];
    (* the ticket clamp, now fused with the dedup check under the
       shard lock: a ticket is only drawn for a genuinely-new key, so
       tickets below the budget are dense and issued exactly once
       (refunds only happen at or above the budget) — [configs_visited]
       is exact even under domain races *)
    let ticket () =
      let tk = Atomic.fetch_and_add global_count 1 in
      if tk >= max_configs then begin
        Atomic.decr global_count;
        None
      end
      else Some tk
    in
    let worker ~pause i () =
      Metrics.incr m_domains;
      let local = ref [] and local_len = ref 0 in
      let exhausted = ref false in
      let terminals_here = ref [] in
      let violation = ref None in
      let error = ref None in
      let spilled = ref 0 in
      let snap () = (!local, !exhausted) in
      let safepoint () = Pause.point pause i snap in
      let stopped () = Atomic.get stop in
      let maybe_spill () =
        if !local_len >= spill_at && Wspool.own_pending pool i = 0 then begin
          let keep = !local_len / 2 in
          let kept, handed = split_at keep !local in
          let count = !local_len - keep in
          local := kept;
          local_len := keep;
          Wspool.push_batch pool i ~count handed;
          Metrics.incr m_spills;
          Metrics.gauge_max g_frontier_peak (keep + Wspool.pending pool)
        end
      in
      let process (config, depth, sleep) =
        let bare = E.key ~reduction config in
        let key = admission_key ~reduction bare sleep in
        (* expansion of an already-admitted configuration; a
           non-verdict exception escaping from here (a user [check]
           raising, say) leaves the admission behind, so the key is
           marked orphaned before the handler in [drain] re-pushes the
           item — the re-processor must expand despite the dedup hit *)
        let expand () =
          try
            Metrics.gauge_max g_depth_peak depth;
            let decisions = E.decisions config in
            (match check decisions with
            | Some reason -> raise (Found (decisions, reason, depth))
            | None -> ());
            let done_ =
              List.for_all (fun p -> E.decision_of config p <> None) correct
            in
            if done_ then begin
              if Shardset.add term_set bare 0 then begin
                Atomic.incr terminals_n;
                terminals_here := decisions :: !terminals_here;
                Metrics.incr m_terminals
              end
            end
            else if depth >= max_depth then exhausted := true
            else begin
              (match reduction with
              | Canon.Symmetry_por ->
                  schedule_successors_sleep ~reduction ~policy ~pattern
                    ~steppers:correct ~sleep ~parent_key:bare config
                    (fun config' sleep' ->
                      local := (config', depth + 1, sleep') :: !local;
                      incr local_len)
              | Canon.No_reduction | Canon.Symmetry ->
                  schedule_successors ~reduction ~policy ~pattern
                    ~steppers:correct config (fun config' ->
                      local := (config', depth + 1, []) :: !local;
                      incr local_len));
              maybe_spill ()
            end
          with
          | Found _ as e -> raise e
          | e ->
              orphan_add key;
              raise e
        in
        match Shardset.admit seen key ~ticket with
        | Shardset.Found _ ->
            if orphan_take key then expand ()
            else begin
              Metrics.incr m_dedup;
              if reduction <> Canon.No_reduction then Metrics.incr m_orbit
            end
        | Shardset.Rejected ->
            exhausted := true;
            Metrics.incr m_truncations
        | Shardset.Admitted _ ->
            Metrics.incr m_admitted;
            (match reduction with
            | Canon.Symmetry_por ->
                if not (Shardset.add bare_set bare 0) then
                  Metrics.incr m_sleep_readmit
            | Canon.No_reduction | Canon.Symmetry -> ());
            expand ()
      in
      let rec drain () =
        safepoint ();
        if not (stopped ()) then
          match !local with
          | item :: rest ->
              local := rest;
              decr local_len;
              (try process item
               with e ->
                 (match e with
                 | Found _ -> ()
                 | _ ->
                     (* non-verdict failure: keep the in-flight item
                        so nothing is lost when we hand off below *)
                     local := item :: !local;
                     incr local_len);
                 raise e);
              drain ()
          | [] -> (
              match Wspool.acquire pool i ~safepoint ~stopped with
              | Some (count, batch) ->
                  local := batch;
                  local_len := count;
                  drain ()
              | None -> ())
      in
      (try Metrics.time t_worker drain with
      | Found (decisions, reason, depth) ->
          violation := Some (decisions, reason, depth);
          Atomic.set stop true
      | e ->
          error := Some (Printexc.to_string e);
          (* die visibly but not wastefully: everything this worker
             still owns goes back to the shared pool, where survivors
             (or the post-join rescue) pick it up; the in-flight item
             whose admission already landed is marked in [orphans], so
             its re-processor expands it instead of deduping it away *)
          (try
             if !local_len > 0 then begin
               Wspool.push_batch pool i ~count:!local_len !local;
               spilled := !local_len;
               local := [];
               local_len := 0
             end
           with _ -> ());
          Wspool.retire pool);
      Pause.exit pause i snap;
      (!terminals_here, !exhausted, !violation, !spilled, !error)
    in
    (* merge the pause-the-world cut into a sequential-format
       checkpoint payload: the shared table is the seen set, and every
       pending candidate sits either in a parked worker's published
       stack or in a pool.  Resume continues on [explore]. *)
    let merge slots =
      let seen_m : (E.key, unit) Hashtbl.t =
        Hashtbl.create (2 * Shardset.length seen + 16)
      in
      Shardset.iter (fun k _ -> Hashtbl.replace seen_m k ()) seen;
      let term_m : (E.key, unit) Hashtbl.t =
        Hashtbl.create (2 * Shardset.length term_set + 16)
      in
      Shardset.iter (fun k _ -> Hashtbl.replace term_m k ()) term_set;
      let bare_m : (E.key, unit) Hashtbl.t =
        Hashtbl.create (2 * Shardset.length bare_set + 16)
      in
      Shardset.iter (fun k _ -> Hashtbl.replace bare_m k ()) bare_set;
      (* a pending orphan (admitted, expansion cut short by a worker
         failure, not yet re-expanded) must read as unvisited in the
         sequential format: drop its key so resume re-admits and
         expands it, and return its ticket so [configs_visited] stays
         exact after the re-admission *)
      let orphaned = orphan_keys () in
      List.iter (fun k -> Hashtbl.remove seen_m k) orphaned;
      let stack = ref [] in
      let ex = ref false in
      Array.iter
        (function
          | None -> ()
          | Some (items, exh) ->
              stack := List.rev_append items !stack;
              if exh then ex := true)
        slots;
      Wspool.iter_pending pool (fun it -> stack := it :: !stack);
      Marshal.to_string
        (( reduction,
           seen_m,
           term_m,
           bare_m,
           Atomic.get global_count - List.length orphaned,
           Atomic.get terminals_n,
           !ex,
           !stack )
          : explore_snap)
        []
    in
    let coordinator =
      spawn_coordinator ~ckpt ~pause
        ~items:(fun () -> Atomic.get global_count)
        ~merge
        ~on_interrupt:(fun () ->
          interrupted := true;
          Atomic.set stop true)
    in
    let handles =
      List.init domains (fun i -> Domain.spawn (worker ~pause:(Some pause) i))
    in
    let joined = List.map Domain.join handles in
    stop_coordinator coordinator;
    (* supervision: a dead worker already handed its share back to the
       pool, so its admissions stand and no ticket is refunded.  Log
       each failure; if dead workers' items outlived every survivor,
       drain the leftovers with one rescue worker in this domain.  A
       rescue that dies too is a systematic fault — surface it. *)
    List.iteri
      (fun i (_, _, _, spilled, err) ->
        match err with
        | Some error ->
            Checkpoint.note_failure ckpt ~worker:i ~error ~requeued:spilled
        | None -> ())
      joined;
    let had_errors =
      List.exists (fun (_, _, _, _, e) -> e <> None) joined
    in
    let rescued =
      if had_errors && (not (Atomic.get stop)) && Wspool.pending pool > 0
      then begin
        Wspool.reset_for_rescue pool;
        let ((_, _, _, _, rerr) as r) = worker ~pause:None 0 () in
        (match rerr with
        | Some err2 ->
            failwith
              (Printf.sprintf "explorer rescue worker failed twice: %s" err2)
        | None -> ());
        [ r ]
      end
      else []
    in
    let results = joined @ rescued in
    Shardset.publish_metrics seen;
    let violation =
      List.fold_left
        (fun best (_, _, v, _, _) ->
          match (best, v) with
          | None, v -> v
          | Some _, None -> best
          | Some (_, _, db), Some (_, _, dv) -> if dv < db then v else best)
        None results
    in
    match violation with
    | Some (decisions, reason, depth) -> Violation { decisions; reason; depth }
    | None ->
        let exhausted = ref !interrupted in
        List.iter
          (fun (terms, ex, _, _, _) ->
            if ex then exhausted := true;
            List.iter on_terminal terms)
          results;
        let stats =
          {
            configs_visited = Atomic.get global_count;
            terminal_runs = Atomic.get terminals_n;
            budget_exhausted = !exhausted;
          }
        in
        record_run_stats stats;
        Safe stats

  (* ---- crash-adversarial exploration ---- *)

  exception Unsafe of (Pid.t * Value.t * int) list * string

  (* The crashed set travels as a bitmask folded into the node key;
     node identities and graph edges are dense ints, never strings. *)
  let mask_mem = Mask.mem
  let mask_add = Mask.add
  let mask_to_list = Mask.to_list
  let popcount = Mask.popcount

  type node_rec = {
    succs : int list;
    complete : bool;
    mask : int;
    undecided : Pid.t list;
  }

  (* A successor of a crash-graph node: a (configuration, mask) pair
     to key and admit, or the node itself — an empty delivery
     {!E.idle_step} proves idle, whose key is the node's own.  The
     self-loop stays an edge of the graph: the drivers record the
     node's id in its place, exactly the id its key would have found. *)
  type succ = Self | Next of E.config * int

  (* The ids of a node's successors: [visit] keys and admits a [Next],
     a [Self] is the node's own id [self]. *)
  let succ_ids ~reduction ~self visit succs =
    List.filter_map
      (function
        | Self ->
            idle_hit ~reduction;
            Some self
        | Next (c, m) -> visit c m)
      succs

  (* Per-node expansion, shared by the sequential and parallel
     drivers: decisions check, completeness, and the successors.

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
      ~model ~forge_alts ~pattern_of ~check config mask =
    let decisions = E.decisions config in
    (match check decisions with
    | Some reason -> raise (Unsafe (decisions, reason))
    | None -> ());
    let budget = Fault_model.budget_or ~crash_budget model in
    (* the live pids are the ones outside [mask]; the node is complete
       when every one of them has decided *)
    let undecided = ref [] in
    for p = n - 1 downto 0 do
      if (not (mask_mem mask p)) && Option.is_none (E.decision_of config p)
      then undecided := p :: !undecided
    done;
    let undecided = !undecided in
    let is_complete = match undecided with [] -> true | _ :: _ -> false in
    let succs = ref [] in
    if not is_complete then begin
      let pattern = pattern_of mask in
      for pid = 0 to n - 1 do
        if not (mask_mem mask pid) then
          List.iter
            (fun deliver ->
              match deliver with
              | [] when E.idle_step ~pattern config pid ->
                  succs := Self :: !succs
              | _ -> (
                  match
                    E.apply ~pattern config (Adversary.Step { pid; deliver })
                  with
                  | Some config' -> succs := Next (config', mask) :: !succs
                  | None -> assert false))
            (choices policy (E.inbox config pid))
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
          if popcount mask - popcount base_mask < budget then begin
            let by_src = if drop_on_crash then by_src_of () else [||] in
            for victim = 0 to n - 1 do
              if not (mask_mem mask victim) then begin
                let mask' = mask_add mask victim in
                succs := Next (config, mask') :: !succs;
                if drop_on_crash && by_src.(victim) <> [] then
                  match
                    E.apply ~pattern:(pattern_of mask') config
                      (Adversary.Drop by_src.(victim))
                  with
                  | Some config' -> succs := Next (config', mask') :: !succs
                  | None -> assert false
              end
            done
          end
      | Fault_model.Mobile t ->
          if t > 0 then begin
            let by_src = by_src_of () in
            for s = 0 to n - 1 do
              if by_src.(s) <> [] then
                succs := Next (E.omit config by_src.(s), mask) :: !succs
            done
          end);
      (match model with
      | Fault_model.Byzantine _ when forge_alts > 0 ->
          List.iter
            (fun (e : A.message Envelope.t) ->
              if mask_mem mask e.src then
                for alt = 0 to forge_alts - 1 do
                  match
                    E.apply ~pattern config
                      (Adversary.Forge { id = e.id; alt })
                  with
                  | Some config' -> succs := Next (config', mask) :: !succs
                  | None -> assert false
                done)
            (E.pending config)
      | Fault_model.Byzantine _ | Fault_model.Crash | Fault_model.Mobile _ ->
          ())
    end;
    (is_complete, mask, undecided, !succs)

  (* Backwards reachability from the complete nodes over the int-id
     graph; [None] when every node can still reach completion.  The
     reported witness is the minimum over (mask, undecided) of all
     stuck nodes, so sequential and parallel drivers — which discover
     nodes in different orders — return the same one. *)
  let classify_graph ~count ~(recs : node_rec array) =
    let preds = Array.make count [] in
    let completes = ref [] in
    for id = 0 to count - 1 do
      if recs.(id).complete then completes := id :: !completes;
      List.iter (fun s -> preds.(s) <- id :: preds.(s)) recs.(id).succs
    done;
    let can_decide = Array.make count false in
    let rec mark_all = function
      | [] -> ()
      | id :: rest ->
          if can_decide.(id) then mark_all rest
          else begin
            can_decide.(id) <- true;
            mark_all (List.rev_append preds.(id) rest)
          end
    in
    mark_all !completes;
    let stuck = ref None in
    for id = 0 to count - 1 do
      if not can_decide.(id) then begin
        let w = (recs.(id).mask, recs.(id).undecided) in
        match !stuck with
        | Some best when compare best w <= 0 -> ()
        | Some _ | None -> stuck := Some w
      end
    done;
    !stuck

  let check_crash_explorable ~n ~initially_dead =
    if A.uses_fd then
      invalid_arg "Explorer: algorithms with failure detectors are unsupported";
    if n > Sys.int_size - 2 then
      invalid_arg "Explorer: system too large for crash-set bitmasks";
    List.iter
      (fun p ->
        if not (Pid.valid ~n p) then
          invalid_arg "Explorer: initially_dead pid out of range")
      initially_dead

  let base_mask_of initially_dead =
    List.fold_left mask_add 0 initially_dead

  (* memoised initial-dead failure patterns, one per crashed-set mask *)
  let make_pattern_of ~n =
    let patterns : (int, Failure_pattern.t) Hashtbl.t = Hashtbl.create 64 in
    fun mask ->
      match Hashtbl.find_opt patterns mask with
      | Some p -> p
      | None ->
          let p =
            Failure_pattern.initial_dead ~n ~dead:(mask_to_list ~n mask)
          in
          Hashtbl.add patterns mask p;
          p

  (* Checkpoint payload of a crash campaign: the reduction mode, the
     fault-model tag, the key→id table, the expanded prefix of the
     node-record graph, the counters, and the worklist of
     admitted-but-unexpanded nodes.  The parallel driver merges its
     per-worker graphs into this same format (global dense ids
     re-assigned at merge time), and resume always continues on the
     sequential driver.  Mode or model mismatch on resume warns and
     starts fresh.

     The crash drivers use the orbit keys of the symmetry modes but
     never sleep sets ([Symmetry_por] behaves like [Symmetry] here):
     the Stuck classification is backward reachability over the full
     transition graph, and sleep sets prune edges. *)
  type crash_snap =
    Canon.reduction
    * string (* Fault_model.to_string of the campaign's model *)
    * (E.key, int) Hashtbl.t
    * node_rec array
    * int
    * int
    * bool
    * (int * E.config * int) list

  let empty_rec = { succs = []; complete = false; mask = 0; undecided = [] }

  let explore_with_crashes ?(reduction = Canon.No_reduction)
      ?(model = Fault_model.Crash) ?(max_configs = 300_000)
      ?(policy = Per_sender) ?(drop_on_crash = true) ?(initially_dead = [])
      ?(ckpt = Checkpoint.ctl ()) ?resume ~n ~inputs ~crash_budget ~check () =
    check_crash_explorable ~n ~initially_dead;
    Metrics.gauge_set g_max_configs max_configs;
    let base_mask = base_mask_of initially_dead in
    let pattern_of = make_pattern_of ~n in
    let model_tag = Fault_model.to_string model in
    let forge_alts =
      match model with
      | Fault_model.Byzantine _ -> List.length (E.forge_pool ~n ~inputs)
      | Fault_model.Crash | Fault_model.Mobile _ -> 0
    in
    let fresh_crash () =
      (Hashtbl.create 65_536, Array.make 1024 empty_rec, 0, 0, false, [])
    in
    let resume, (ids, recs0, count0, terminals0, exhausted0, worklist0) =
      match resume with
      | Some payload ->
          let mode, mtag, ids, recs0, count0, t0, e0, wl0 =
            (Marshal.from_string payload 0 : crash_snap)
          in
          if mode <> reduction then begin
            warn_reduction_mismatch ~want:reduction ~got:mode;
            (None, fresh_crash ())
          end
          else if mtag <> model_tag then begin
            warn_model_mismatch ~want:model ~got:mtag;
            (None, fresh_crash ())
          end
          else (Some payload, (ids, recs0, count0, t0, e0, wl0))
      | None -> (None, fresh_crash ())
    in
    let recs =
      ref (if Array.length recs0 = 0 then Array.make 1024 empty_rec else recs0)
    in
    let count = ref count0 in
    let terminals = ref terminals0 in
    let exhausted = ref exhausted0 in
    let interrupted = ref false in
    let worklist = ref worklist0 in
    let wl_len = ref (List.length worklist0) in
    (* discovery: assign a dense id the first time a node is seen and
       queue it for expansion; [None] once the budget is exhausted *)
    let visit config mask =
      let key = E.key ~crashed:mask ~reduction config in
      match Hashtbl.find_opt ids key with
      | Some id ->
          Metrics.incr m_dedup;
          if reduction <> Canon.No_reduction then Metrics.incr m_orbit;
          Some id
      | None ->
          if !count >= max_configs then begin
            exhausted := true;
            Metrics.incr m_truncations;
            None
          end
          else begin
            let id = !count in
            incr count;
            Metrics.incr m_admitted;
            Hashtbl.add ids key id;
            if id >= Array.length !recs then begin
              let bigger = Array.make (2 * Array.length !recs) empty_rec in
              Array.blit !recs 0 bigger 0 (Array.length !recs);
              recs := bigger
            end;
            worklist := (id, config, mask) :: !worklist;
            incr wl_len;
            Metrics.gauge_max g_frontier_peak !wl_len;
            Some id
          end
    in
    let expand (id, config, mask) =
      let is_complete, mask, undecided, succ_pairs =
        expand_crash_node ~n ~policy ~drop_on_crash ~base_mask ~crash_budget
          ~model ~forge_alts ~pattern_of ~check config mask
      in
      if is_complete then begin
        incr terminals;
        Metrics.incr m_terminals
      end;
      let succs = succ_ids ~reduction ~self:id visit succ_pairs in
      !recs.(id) <- { succs; complete = is_complete; mask; undecided }
    in
    let snap () =
      Marshal.to_string
        (( reduction,
           model_tag,
           ids,
           Array.sub !recs 0 !count,
           !count,
           !terminals,
           !exhausted,
           !worklist )
          : crash_snap)
        []
    in
    let enumerate () =
      if resume = None then
        ignore (visit (E.init_explore ~reduction ~n ~inputs ()) base_mask);
      let rec drain () =
        match !worklist with
        | [] -> ()
        | _ when Checkpoint.interrupted ckpt ->
            Checkpoint.flush ckpt snap;
            interrupted := true
        | node :: rest ->
            worklist := rest;
            decr wl_len;
            expand node;
            Checkpoint.tick ckpt ~items:!count snap;
            drain ()
      in
      drain ()
    in
    match enumerate () with
    | exception Unsafe (decisions, reason) ->
        Safety_violation { decisions; reason }
    | () ->
        if !interrupted then exhausted := true;
        let stats =
          {
            configs_visited = !count;
            terminal_runs = !terminals;
            budget_exhausted = !exhausted;
          }
        in
        record_run_stats stats;
        (* A truncated graph cannot be classified: stuck-ness is a
           property of {e all} continuations, and unexpanded frontier
           nodes would read as stuck while truly-stuck nodes may hide
           beyond the cut.  Say so instead of claiming the optimistic
           verdict. *)
        if !exhausted then Indeterminate stats
        else
          match classify_graph ~count:!count ~recs:!recs with
          | Some (mask, undecided_correct) ->
              Stuck
                {
                  crashed = mask_to_list ~n mask;
                  undecided_correct;
                  stats;
                }
          | None -> All_paths_decide stats

  (* Parallel crash-adversarial exploration over shared state: one
     {!Shardset} key table, one ticket counter, one write-once
     {!Nodestore} of node records.  A node's global dense id {e is}
     its admission ticket (the root, expanded inline, is id 0), so
     graph edges are globally meaningful the moment they are made and
     the merge needs no id translation at all — the classified graph
     is byte-for-byte the sequential one's modulo discovery order,
     which {!classify_graph}'s minimum-witness rule already
     normalises.  The frontier flows through a {!Wspool} exactly as in
     [explore_par].  Outcomes match [explore_with_crashes] whenever
     the budget does not truncate.  [check] must be thread-safe. *)
  let explore_with_crashes_par ?(reduction = Canon.No_reduction)
      ?(model = Fault_model.Crash) ?domains ?(max_configs = 300_000)
      ?(policy = Per_sender) ?(drop_on_crash = true) ?(initially_dead = [])
      ?(ckpt = Checkpoint.ctl ()) ~n ~inputs ~crash_budget ~check () =
    check_crash_explorable ~n ~initially_dead;
    Metrics.gauge_set g_max_configs max_configs;
    if max_configs < 1 then begin
      (* the sequential driver's clamp admits nothing on a degenerate
         budget — not even the root is visited or expanded; mirror it
         exactly instead of expanding the root before accounting *)
      Metrics.incr m_truncations;
      let stats =
        { configs_visited = 0; terminal_runs = 0; budget_exhausted = true }
      in
      record_run_stats stats;
      Indeterminate stats
    end
    else
    let domains =
      max 1 (match domains with Some d -> d | None -> default_domains ())
    in
    let base_mask = base_mask_of initially_dead in
    let model_tag = Fault_model.to_string model in
    let forge_alts =
      match model with
      | Fault_model.Byzantine _ -> List.length (E.forge_pool ~n ~inputs)
      | Fault_model.Crash | Fault_model.Mobile _ -> 0
    in
    let root = E.init_explore ~reduction ~n ~inputs () in
    let pattern_of0 = make_pattern_of ~n in
    match
      expand_crash_node ~n ~policy ~drop_on_crash ~base_mask ~crash_budget
        ~model ~forge_alts ~pattern_of:pattern_of0 ~check root base_mask
    with
    | exception Unsafe (decisions, reason) ->
        Safety_violation { decisions; reason }
    | root_complete, root_mask, root_undecided, root_succs ->
        let seen = Shardset.create ~name:"explore.dedup" () in
        let recs : node_rec Nodestore.t = Nodestore.create ~empty:empty_rec in
        let global_count = Atomic.make 1 (* the root *) in
        let terminals_n = Atomic.make (if root_complete then 1 else 0) in
        Metrics.incr m_admitted;
        if root_complete then Metrics.incr m_terminals;
        ignore (Shardset.add seen (E.key ~crashed:root_mask ~reduction root) 0);
        let stop = Atomic.make false in
        let interrupted = ref false in
        let exhausted0 = ref false in
        let ticket () =
          let tk = Atomic.fetch_and_add global_count 1 in
          if tk >= max_configs then begin
            Atomic.decr global_count;
            None
          end
          else Some tk
        in
        let pause = Pause.create domains in
        let pool : (int * E.config * int) Wspool.t =
          Wspool.create ~workers:domains
        in
        (* admit the root's successors inline and seed the pools *)
        let seed = ref [] in
        let root_succ_ids =
          succ_ids ~reduction ~self:0
            (fun c m ->
              let key = E.key ~crashed:m ~reduction c in
              match Shardset.admit seen key ~ticket with
              | Shardset.Found id ->
                  Metrics.incr m_dedup;
                  if reduction <> Canon.No_reduction then Metrics.incr m_orbit;
                  Some id
              | Shardset.Rejected ->
                  exhausted0 := true;
                  Metrics.incr m_truncations;
                  None
              | Shardset.Admitted id ->
                  Metrics.incr m_admitted;
                  seed := (id, c, m) :: !seed;
                  Some id)
            root_succs
        in
        Nodestore.set recs 0
          {
            succs = root_succ_ids;
            complete = root_complete;
            mask = root_mask;
            undecided = root_undecided;
          };
        Wspool.seed pool (List.rev !seed);
        let worker ~pause i () =
          Metrics.incr m_domains;
          let pattern_of = make_pattern_of ~n in
          let local = ref [] and local_len = ref 0 in
          let exhausted = ref false in
          let violation = ref None in
          let error = ref None in
          let spilled = ref 0 in
          let snap () = (!local, !exhausted) in
          let safepoint () = Pause.point pause i snap in
          let stopped () = Atomic.get stop in
          let maybe_spill () =
            if !local_len >= spill_at && Wspool.own_pending pool i = 0
            then begin
              let keep = !local_len / 2 in
              let kept, handed = split_at keep !local in
              let count = !local_len - keep in
              local := kept;
              local_len := keep;
              Wspool.push_batch pool i ~count handed;
              Metrics.incr m_spills;
              Metrics.gauge_max g_frontier_peak (keep + Wspool.pending pool)
            end
          in
          let visit config mask =
            let key = E.key ~crashed:mask ~reduction config in
            match Shardset.admit seen key ~ticket with
            | Shardset.Found id ->
                Metrics.incr m_dedup;
                if reduction <> Canon.No_reduction then Metrics.incr m_orbit;
                Some id
            | Shardset.Rejected ->
                exhausted := true;
                Metrics.incr m_truncations;
                None
            | Shardset.Admitted id ->
                Metrics.incr m_admitted;
                local := (id, config, mask) :: !local;
                incr local_len;
                Some id
          in
          let process (id, config, mask) =
            let is_complete, mask, undecided, succ_pairs =
              expand_crash_node ~n ~policy ~drop_on_crash ~base_mask
                ~crash_budget ~model ~forge_alts ~pattern_of ~check config mask
            in
            let succs = succ_ids ~reduction ~self:id visit succ_pairs in
            (* supervision can re-expand a node whose first expansion
               died mid-flight (re-pushed in-flight item): count its
               terminal only on the store's first write, so
               [terminal_runs] is idempotent per id.  [empty_rec] is a
               physical sentinel no expanded record ever aliases, and
               only one domain can hold id at a time (handoff through
               the pool orders the re-expansion after the death). *)
            let first_write = Nodestore.get recs id == empty_rec in
            Nodestore.set recs id
              { succs; complete = is_complete; mask; undecided };
            if is_complete && first_write then begin
              Atomic.incr terminals_n;
              Metrics.incr m_terminals
            end;
            maybe_spill ()
          in
          let rec drain () =
            safepoint ();
            if not (stopped ()) then
              match !local with
              | item :: rest ->
                  local := rest;
                  decr local_len;
                  (try process item
                   with e ->
                     (match e with
                     | Unsafe _ -> ()
                     | _ ->
                         local := item :: !local;
                         incr local_len);
                     raise e);
                  drain ()
              | [] -> (
                  match Wspool.acquire pool i ~safepoint ~stopped with
                  | Some (count, batch) ->
                      local := batch;
                      local_len := count;
                      drain ()
                  | None -> ())
          in
          (try Metrics.time t_worker drain with
          | Unsafe (decisions, reason) ->
              violation := Some (decisions, reason);
              Atomic.set stop true
          | e ->
              error := Some (Printexc.to_string e);
              (try
                 if !local_len > 0 then begin
                   Wspool.push_batch pool i ~count:!local_len !local;
                   spilled := !local_len;
                   local := [];
                   local_len := 0
                 end
               with _ -> ());
              Wspool.retire pool);
          Pause.exit pause i snap;
          (!exhausted, !violation, !spilled, !error)
        in
        (* pause-the-world cut to the sequential checkpoint format:
           the shared table gives key→id, the store gives the expanded
           record prefix (unexpanded ids read as [empty_rec], exactly
           the sequential driver's convention), and the worklist is
           the union of parked stacks and pools.  Resume continues on
           [explore_with_crashes]. *)
        let merge slots =
          let gids : (E.key, int) Hashtbl.t =
            Hashtbl.create (2 * Shardset.length seen + 16)
          in
          Shardset.iter (fun k id -> Hashtbl.replace gids k id) seen;
          let count = Atomic.get global_count in
          let recs_a = Array.init count (Nodestore.get recs) in
          let wl = ref [] in
          let ex = ref !exhausted0 in
          Array.iter
            (function
              | None -> ()
              | Some (items, exh) ->
                  wl := List.rev_append items !wl;
                  if exh then ex := true)
            slots;
          Wspool.iter_pending pool (fun it -> wl := it :: !wl);
          Marshal.to_string
            (( reduction,
               model_tag,
               gids,
               recs_a,
               count,
               Atomic.get terminals_n,
               !ex,
               !wl )
              : crash_snap)
            []
        in
        let coordinator =
          spawn_coordinator ~ckpt ~pause
            ~items:(fun () -> Atomic.get global_count)
            ~merge
            ~on_interrupt:(fun () ->
              interrupted := true;
              Atomic.set stop true)
        in
        let handles =
          List.init domains (fun i ->
              Domain.spawn (worker ~pause:(Some pause) i))
        in
        let joined = List.map Domain.join handles in
        stop_coordinator coordinator;
        (* supervision: as in [explore_par] — failures are logged, the
           dead worker's items are already back in the pool, and a
           single rescue worker drains anything every survivor
           missed *)
        List.iteri
          (fun i (_, _, spilled, err) ->
            match err with
            | Some error ->
                Checkpoint.note_failure ckpt ~worker:i ~error ~requeued:spilled
            | None -> ())
          joined;
        let had_errors = List.exists (fun (_, _, _, e) -> e <> None) joined in
        let rescued =
          if had_errors && (not (Atomic.get stop)) && Wspool.pending pool > 0
          then begin
            Wspool.reset_for_rescue pool;
            let ((_, _, _, rerr) as r) = worker ~pause:None 0 () in
            (match rerr with
            | Some err2 ->
                failwith
                  (Printf.sprintf "explorer rescue worker failed twice: %s"
                     err2)
            | None -> ());
            [ r ]
          end
          else []
        in
        let results = joined @ rescued in
        Shardset.publish_metrics seen;
        let violation = List.find_map (fun (_, v, _, _) -> v) results in
        (match violation with
        | Some (decisions, reason) -> Safety_violation { decisions; reason }
        | None ->
            let exhausted = ref (!exhausted0 || !interrupted) in
            List.iter
              (fun (ex, _, _, _) -> if ex then exhausted := true)
              results;
            let count = Atomic.get global_count in
            let stats =
              {
                configs_visited = count;
                terminal_runs = Atomic.get terminals_n;
                budget_exhausted = !exhausted;
              }
            in
            record_run_stats stats;
            (* same honesty rule as the sequential driver: a truncated
               graph admits no all-paths-decide claim *)
            if !exhausted then Indeterminate stats
            else
              let recs_a = Array.init count (Nodestore.get recs) in
              match classify_graph ~count ~recs:recs_a with
              | Some (mask, undecided_correct) ->
                  Stuck
                    {
                      crashed = mask_to_list ~n mask;
                      undecided_correct;
                      stats;
                    }
              | None -> All_paths_decide stats)

  let reachable_decision_values ?(reduction = Canon.No_reduction)
      ?(model = Fault_model.Crash) ?(max_configs = 300_000)
      ?(policy = Per_sender) ~n ~inputs ~crash_budget () =
    let seen = ref [] in
    let note decisions =
      List.iter
        (fun (_, v, _) -> if not (List.mem v !seen) then seen := v :: !seen)
        decisions
    in
    (match
       explore_with_crashes ~reduction ~model ~max_configs ~policy ~n ~inputs
         ~crash_budget
         ~check:(fun decisions ->
           note decisions;
           None)
         ()
     with
    | All_paths_decide _ | Stuck _ | Indeterminate _ -> ()
    | Safety_violation _ -> ());
    List.sort compare !seen

  let reachable_decision_values_par ?(reduction = Canon.No_reduction)
      ?(model = Fault_model.Crash) ?domains ?(max_configs = 300_000)
      ?(policy = Per_sender) ~n ~inputs ~crash_budget () =
    (* [check] runs concurrently on several domains: the accumulator
       is mutex-protected.  Parity with the sequential driver follows
       from [explore_with_crashes_par] enumerating the same reachable
       node set (asserted in test/test_explore.ml). *)
    let lock = Mutex.create () in
    let seen = ref [] in
    let note decisions =
      Mutex.lock lock;
      List.iter
        (fun (_, v, _) -> if not (List.mem v !seen) then seen := v :: !seen)
        decisions;
      Mutex.unlock lock
    in
    (match
       explore_with_crashes_par ~reduction ~model ?domains ~max_configs
         ~policy ~n ~inputs ~crash_budget
         ~check:(fun decisions ->
           note decisions;
           None)
         ()
     with
    | All_paths_decide _ | Stuck _ | Indeterminate _ -> ()
    | Safety_violation _ -> ());
    List.sort compare !seen
end
