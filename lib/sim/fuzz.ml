module Rng = Ksa_prim.Rng
module Metrics = Ksa_prim.Metrics
module Listx = Ksa_prim.Listx
module Intern = Ksa_prim.Intern

type weights = {
  deliver_all : int;
  deliver_some : int;
  deliver_none : int;
  drop : int;
  undecided_bias : int;
}

let fair_weights =
  { deliver_all = 1; deliver_some = 0; deliver_none = 0; drop = 0; undecided_bias = 3 }

let default_weights =
  { deliver_all = 5; deliver_some = 3; deliver_none = 2; drop = 2; undecided_bias = 3 }

let check_weights w =
  if w.deliver_all < 0 || w.deliver_some < 0 || w.deliver_none < 0 || w.drop < 0
     || w.undecided_bias < 0
  then invalid_arg "Fuzz: negative weight";
  if w.deliver_all + w.deliver_some + w.deliver_none <= 0 then
    invalid_arg "Fuzz: at least one step weight must be positive"

type property =
  | K_agreement of int
  | Validity
  | Termination
  | Custom of string * (Run.t -> string option)

let property_name = function
  | K_agreement k -> Printf.sprintf "%d-agreement" k
  | Validity -> "validity"
  | Termination -> "termination"
  | Custom (name, _) -> name

type config = {
  n : int;
  inputs : Value.t array;
  pattern : Failure_pattern.t;
  weights : weights;
  max_crashes : int;
  max_steps : int;
  properties : property list;
  model : Fault_model.t;
  coverage : bool;
}

let default_config ?(k = 1) ~n () =
  {
    n;
    inputs = Value.distinct_inputs n;
    pattern = Failure_pattern.none ~n;
    weights = default_weights;
    max_crashes = 0;
    max_steps = 200;
    properties = [ K_agreement k; Validity ];
    coverage = false;
    model = Fault_model.Crash;
  }

type violation = {
  trial : int;
  property : string;
  reason : string;
  pattern : Failure_pattern.t;
  run : Run.t;
  schedule : Replay.step_desc list;
  shrunk : Replay.step_desc list;
  shrink_candidates : int;
  replays : bool;
}

type outcome =
  | Violation_found of violation
  | Clean of { trials : int }
  | Budget_exhausted of { trials : int }

(* live counters; the authoritative per-campaign figures are in the
   returned outcome (several domains may run trials beyond the first
   violation, so raw counters can exceed the canonical count) *)
let m_trials = Metrics.counter "fuzz.trials"
let m_violations = Metrics.counter "fuzz.violations"
let m_shrink_candidates = Metrics.counter "fuzz.shrink.candidates"
let m_domains = Metrics.counter "fuzz.domains.spawned"
let t_trial = Metrics.timer "fuzz.trial"
let t_campaign = Metrics.timer "fuzz.campaign"
let t_shrink = Metrics.timer "fuzz.shrink"
let g_first = Metrics.gauge "fuzz.first_violation.trial"
let g_schedule_len = Metrics.gauge "fuzz.schedule.len"
let g_shrunk_len = Metrics.gauge "fuzz.shrunk.len"

(* greybox coverage instruments, refreshed at every corpus fold and
   finalized at campaign end *)
let g_cov_ids = Metrics.gauge "fuzz.cov.ids"
let g_cov_pairs = Metrics.gauge "fuzz.cov.pairs"
let g_cov_corpus = Metrics.gauge "fuzz.cov.corpus"
let m_cov_admitted = Metrics.counter "fuzz.cov.admitted"
let m_cov_mutants = Metrics.counter "fuzz.cov.mutants"
let m_cov_fresh = Metrics.counter "fuzz.cov.fresh"
let m_poisoned = Metrics.counter "fuzz.tickets_poisoned"

(* campaign rates: [fuzz.trial] sums trial time over the domains, so
   the rates divide by [fuzz.campaign], the wall time of the trial
   phases as the calling domain sees it *)
let () =
  Metrics.probe "fuzz.schedules_per_sec" (fun () ->
      let ns = Metrics.timer_ns t_campaign in
      if ns <= 0 then 0 else Metrics.value m_trials * 1_000_000_000 / ns);
  Metrics.probe "fuzz.cov.ids_per_sec" (fun () ->
      let ns = Metrics.timer_ns t_campaign in
      if ns <= 0 then 0
      else Metrics.gauge_value g_cov_ids * 1_000_000_000 / ns)

(* Delta debugging (Zeller & Hildebrandt's ddmin) over a step list:
   returns a subsequence on which [test] still holds and from which no
   single element can be removed without losing it (1-minimality). *)
let ddmin ~test xs =
  let rec go xs n =
    let len = List.length xs in
    if len <= 1 then xs
    else
      let n = min n len in
      let size = max 1 ((len + n - 1) / n) in
      let chunks = Listx.chunks size xs in
      let rec try_subsets = function
        | [] -> None
        | c :: rest -> if test c then Some c else try_subsets rest
      in
      let rec try_complements i =
        if i >= List.length chunks then None
        else
          let comp =
            List.concat (List.filteri (fun j _ -> j <> i) chunks)
          in
          if test comp then Some comp else try_complements (i + 1)
      in
      match try_subsets chunks with
      | Some c -> go c 2
      | None -> (
          match try_complements 0 with
          | Some comp -> go comp (max (n - 1) 2)
          | None -> if size > 1 then go xs (min len (2 * n)) else xs)
  in
  if test [] then [] else go xs 2

(* ---------- coverage-guided (greybox) machinery ----------

   The interner already assigns a dense id to every process state any
   run reaches, so an AFL-style coverage map comes for free: a bitmap
   over state ids plus a set of (previous-id, next-id) transition
   pairs.  A trial whose run lights any new bit donates its executed
   schedule to a corpus; later trials mutate corpus entries instead
   of always sampling fresh schedules, with an energy schedule that
   favors entries holding rarely-hit ids.

   Determinism is the whole design problem.  Trial [i] must stay a
   pure function of (config, seed, i) — the contract every parity and
   resume test pins — yet mutation needs the corpus, which is built
   from other trials' results.  The resolution is epoch-frozen
   visibility: trials are grouped into fixed-size epochs, and a trial
   in epoch [e] is generated against the corpus state obtained by
   folding exactly the clean trials of epochs [0..e-1], in trial
   order.  Folds happen when the clean-trial watermark (the same
   contiguous-prefix watermark the checkpoints use) crosses an epoch
   boundary, so every domain count folds the identical updates in
   the identical order, no matter how the domains interleave.
   Violating trials contribute nothing (a one-domain campaign stops
   at the first one, so folding them would break parity).

   The per-epoch generation state is published as an immutable [view]
   (entry array plus cumulative energy weights); workers read only
   views, and the mutable master state is touched only while holding
   the campaign's watermark mutex.

   All tuning constants below are part of the deterministic contract:
   changing one changes campaign outcomes, exactly like changing the
   seed. *)

module Cov = struct
  let epoch = 16 (* trials per corpus-visibility epoch *)
  let corpus_cap = 128 (* entries kept; lowest-energy evicted *)
  let rare_cap = 16 (* new ids remembered per entry for rarity *)
  let rare_cutoff = 8 (* hit count at or below which an id is rare *)
  let fresh_odds = 4 (* 1-in-[fresh_odds] trials sample fresh *)

  (* a transition pair packed into one int; state ids are dense from
     0 so 31 bits each fits comfortably in OCaml's 63-bit ints *)
  let pack a b = (a lsl 31) lor b

  type entry = {
    en_pattern : Failure_pattern.t;
    en_sched : Replay.step_desc list; (* executed schedule as admitted *)
    en_new : int; (* ids + pairs first seen in that run *)
    en_rare : int list; (* up to [rare_cap] of the new state ids *)
  }

  type master = {
    mutable bits : Bytes.t; (* bit [i] set iff state id [i] seen *)
    mutable ids : int; (* population count of [bits] *)
    mutable hits : int array; (* folded-update touch count per id *)
    pairs : (int, unit) Hashtbl.t; (* packed transition pairs *)
    mutable corpus : entry list; (* newest first *)
    mutable size : int;
  }

  (* the interner watermark is a cheap, lock-free capacity hint: runs
     before this campaign already interned that many state ids, so
     start the bitmap there instead of growing through every
     power of two (content is unaffected — the bits start zero) *)
  let create_master () =
    let hint = (Intern.watermark Intern.states / 8) + 1 in
    {
      bits = Bytes.make (max 128 hint) '\000';
      ids = 0;
      hits = Array.make (max 1024 (8 * hint)) 0;
      pairs = Hashtbl.create 1024;
      corpus = [];
      size = 0;
    }

  let ensure_bits m id =
    let need = (id lsr 3) + 1 in
    if Bytes.length m.bits < need then begin
      let fresh = Bytes.make (max need (2 * Bytes.length m.bits)) '\000' in
      Bytes.blit m.bits 0 fresh 0 (Bytes.length m.bits);
      m.bits <- fresh
    end

  let test_bit m id =
    id lsr 3 < Bytes.length m.bits
    && Char.code (Bytes.get m.bits (id lsr 3)) land (1 lsl (id land 7)) <> 0

  let set_bit m id =
    ensure_bits m id;
    Bytes.set m.bits (id lsr 3)
      (Char.chr
         (Char.code (Bytes.get m.bits (id lsr 3)) lor (1 lsl (id land 7))))

  let ensure_hits m id =
    if id >= Array.length m.hits then begin
      let fresh = Array.make (max (id + 1) (2 * Array.length m.hits)) 0 in
      Array.blit m.hits 0 fresh 0 (Array.length m.hits);
      m.hits <- fresh
    end

  (* what one clean trial contributes, extracted from its recorded
     trace: the distinct state ids it touched, the distinct transition
     pairs, and its executed schedule (for corpus admission) *)
  type update = {
    up_ids : int array; (* sorted distinct *)
    up_pairs : int array; (* sorted distinct, packed *)
    up_pattern : Failure_pattern.t;
    up_sched : Replay.step_desc list;
  }

  let sorted_keys h =
    let a = Array.of_seq (Hashtbl.to_seq_keys h) in
    Array.sort compare a;
    a

  let update_of_run ~pattern (run : Run.t) =
    let tr = run.Run.trace in
    let idset = Hashtbl.create 64 in
    let pairset = Hashtbl.create 64 in
    Array.iteri
      (fun p init ->
        Hashtbl.replace idset init ();
        let prev = ref init in
        Array.iter
          (fun (s : Trace.step) ->
            Hashtbl.replace idset s.Trace.state_id ();
            Hashtbl.replace pairset (pack !prev s.Trace.state_id) ();
            prev := s.Trace.state_id)
          tr.Trace.steps.(p))
      tr.Trace.init_ids;
    {
      up_ids = sorted_keys idset;
      up_pairs = sorted_keys pairset;
      up_pattern = pattern;
      up_sched = Trace_io.schedule_of_run run;
    }

  let energy m e =
    let rare =
      List.fold_left
        (fun acc id ->
          if id < Array.length m.hits && m.hits.(id) <= rare_cutoff then
            acc + 1
          else acc)
        0 e.en_rare
    in
    1 + min e.en_new 32 + (8 * rare)

  (* deterministic eviction: drop the oldest entry of minimal energy
     ([<=] while scanning newest-first lands on the last, i.e. oldest,
     minimum) *)
  let evict m =
    let arr = Array.of_list m.corpus in
    let worst = ref 0 in
    Array.iteri
      (fun i e -> if energy m e <= energy m arr.(!worst) then worst := i)
      arr;
    let w = !worst in
    m.corpus <- List.filteri (fun i _ -> i <> w) m.corpus;
    m.size <- m.size - 1

  let publish_gauges m =
    Metrics.gauge_set g_cov_ids m.ids;
    Metrics.gauge_set g_cov_pairs (Hashtbl.length m.pairs);
    Metrics.gauge_set g_cov_corpus m.size

  let fold_update m (u : update) =
    let news = ref 0 in
    let rare = ref [] in
    let nrare = ref 0 in
    Array.iter
      (fun id ->
        ensure_hits m id;
        if not (test_bit m id) then begin
          set_bit m id;
          m.ids <- m.ids + 1;
          incr news;
          if !nrare < rare_cap then begin
            rare := id :: !rare;
            incr nrare
          end
        end;
        m.hits.(id) <- m.hits.(id) + 1)
      u.up_ids;
    Array.iter
      (fun pk ->
        if not (Hashtbl.mem m.pairs pk) then begin
          Hashtbl.add m.pairs pk ();
          incr news
        end)
      u.up_pairs;
    if !news > 0 && u.up_sched <> [] then begin
      Metrics.incr m_cov_admitted;
      m.corpus <-
        {
          en_pattern = u.up_pattern;
          en_sched = u.up_sched;
          en_new = !news;
          en_rare = List.rev !rare;
        }
        :: m.corpus;
      m.size <- m.size + 1;
      if m.size > corpus_cap then evict m
    end

  (* an immutable per-epoch generation snapshot: entries in admission
     order with cumulative energy weights, so weighted parent picks
     never read the mutable master *)
  type view = { entries : entry array; cum : int array; total : int }

  let view_of m =
    let entries = Array.of_list (List.rev m.corpus) in
    let cum = Array.make (Array.length entries) 0 in
    let total = ref 0 in
    Array.iteri
      (fun i e ->
        total := !total + energy m e;
        cum.(i) <- !total)
      entries;
    { entries; cum; total = !total }

  let pick_entry v r =
    (* first index whose cumulative weight exceeds r; linear scan is
       fine at [corpus_cap] entries *)
    let n = Array.length v.entries in
    let rec go i = if i >= n - 1 || v.cum.(i) > r then i else go (i + 1) in
    v.entries.(go 0)

  (* per-campaign coverage state: [master] folded through every trial
     below [base] (always an epoch boundary), clean-trial updates at
     or above [base] buffered in [pending], and the generation view
     for each folded epoch boundary in [views].  While workers run,
     it is touched only under the campaign's watermark mutex. *)
  type box = {
    mutable master : master;
    mutable base : int;
    pending : (int, update) Hashtbl.t;
    views : (int, view) Hashtbl.t;
  }

  let epoch_floor i = i - (i mod epoch)

  (* fold every complete epoch up to [target] (an epoch boundary; all
     clean updates below it must be pending), registering the
     generation view at each boundary crossed *)
  let fold_to b target =
    while b.base < target do
      for i = b.base to b.base + epoch - 1 do
        match Hashtbl.find_opt b.pending i with
        | Some u ->
            fold_update b.master u;
            Hashtbl.remove b.pending i
        | None -> ()
      done;
      b.base <- b.base + epoch;
      Hashtbl.replace b.views b.base (view_of b.master);
      publish_gauges b.master
    done

  (* fold the clean updates of the trials below [below] that remain
     (the trailing partial epoch), in trial order — campaign-end
     finalization so the coverage gauges report the whole campaign,
     never for generation.  Trials at or above [below] may or may not
     have run, depending on the domains' timing, and are left out. *)
  let fold_tail ~below b =
    let idxs =
      List.sort compare
        (Hashtbl.fold
           (fun i _ acc -> if i < below then i :: acc else acc)
           b.pending [])
    in
    List.iter
      (fun i ->
        match Hashtbl.find_opt b.pending i with
        | Some u ->
            fold_update b.master u;
            Hashtbl.remove b.pending i
        | None -> ())
      idxs;
    publish_gauges b.master
end

(* ---------- checkpoint payload (schema version 4) ---------- *)

(* What a fuzz checkpoint carries.  For a blind campaign the trial
   watermark alone is the whole resumable state (trial [i] is a pure
   function of (config, seed, i)).  A coverage campaign additionally
   carries the corpus machinery in canonical form: the master folded
   to exactly [epoch_floor watermark] plus the pending updates of the
   current partial epoch, in trial order — the same state the
   uninterrupted campaign holds at that watermark, so resume is
   bit-identical, corpus included. *)
type cov_state = {
  cs_base : int;
  cs_master : Cov.master;
  cs_pending : (int * Cov.update) list; (* sorted; trials in [base, wm) *)
}

type payload = {
  engine : string; (* always [fuzz_engine] *)
  pl_trial : int;
  pl_cov : cov_state option;
  pl_model : string; (* Fault_model.to_string of the campaign's model *)
}

(* Every checkpoint payload, the explorer's included, leads with the
   name of the engine that wrote it, so field 0 reads as a string
   whoever wrote the payload; the rest is read only when it names this
   engine.  [Error] carries the name it does give. *)
let fuzz_engine = "fuzz"

let decode_payload s =
  let p = (Marshal.from_string s 0 : payload) in
  if p.engine = fuzz_engine then Ok p else Error p.engine

(* canonical coverage payload at watermark [wm]; caller holds the
   campaign's watermark mutex *)
let cov_payload ~model wm (b : Cov.box) =
  Cov.fold_to b (Cov.epoch_floor wm);
  let pend =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold
         (fun i u acc -> if i < wm then (i, u) :: acc else acc)
         b.Cov.pending [])
  in
  {
    engine = fuzz_engine;
    pl_trial = wm;
    pl_cov =
      Some { cs_base = b.Cov.base; cs_master = b.Cov.master; cs_pending = pend };
    pl_model = model;
  }

(* rebuild a campaign's coverage box for trials starting at [start] *)
let box_of_state ~start (cs : cov_state option) =
  let b =
    match cs with
    | None ->
        {
          Cov.master = Cov.create_master ();
          base = Cov.epoch_floor start;
          pending = Hashtbl.create 64;
          views = Hashtbl.create 32;
        }
    | Some cs ->
        let b =
          {
            Cov.master = cs.cs_master;
            base = cs.cs_base;
            pending = Hashtbl.create 64;
            views = Hashtbl.create 32;
          }
        in
        List.iter (fun (i, u) -> Hashtbl.replace b.Cov.pending i u) cs.cs_pending;
        b
  in
  Hashtbl.replace b.Cov.views b.Cov.base (Cov.view_of b.Cov.master);
  Cov.publish_gauges b.Cov.master;
  b

type coverage_summary = {
  cov_trials : int;
  cov_ids : int;
  cov_pairs : int;
  cov_corpus : (Failure_pattern.t * Replay.step_desc list) list;
}

module Make (A : Algorithm.S) = struct
  module E = Engine.Make (A)

  (* Crash budget of a trial pattern: under [Byzantine t] the
     corrupted set rides the failure pattern (corruption subsumes
     crashing) with budget [t]; under [Mobile] nobody ever crashes. *)
  let effective_max_crashes (cfg : config) =
    match cfg.model with
    | Fault_model.Crash -> cfg.max_crashes
    | Fault_model.Byzantine t -> t
    | Fault_model.Mobile _ -> 0

  (* the forge pool is empty unless the model is Byzantine *)
  let forge_alts_of (cfg : config) =
    match cfg.model with
    | Fault_model.Byzantine _ ->
        List.length (E.forge_pool ~n:cfg.n ~inputs:cfg.inputs)
    | Fault_model.Crash | Fault_model.Mobile _ -> 0

  (* the base pattern plus up to [max_crashes] randomly drawn crash
     times among the processes it leaves correct *)
  let trial_pattern (cfg : config) rng =
    let max_crashes = effective_max_crashes cfg in
    if max_crashes <= 0 then cfg.pattern
    else
      let base =
        List.filter_map
          (fun p ->
            Option.map (fun t -> (p, t)) (Failure_pattern.crash_time cfg.pattern p))
          (Pid.universe cfg.n)
      in
      let correct = Failure_pattern.correct cfg.pattern in
      let c = min (Rng.int rng (max_crashes + 1)) (List.length correct) in
      let victims = Rng.sample rng c correct in
      let extra =
        List.map (fun p -> (p, Rng.int rng (cfg.max_steps + 1))) victims
      in
      Failure_pattern.of_crash_times ~n:cfg.n (base @ extra)

  let nonempty_subset rng = function
    | [] -> invalid_arg "Fuzz.nonempty_subset"
    | xs -> (
        match List.filter (fun _ -> Rng.bool rng) xs with
        | [] -> [ List.nth xs (Rng.int rng (List.length xs)) ]
        | some -> some)

  (* Model-aware weighted adversary.  Under [Crash] the RNG draw
     sequence is bit-identical to the pre-model adversary: the forge
     arm only enters the roll when the model is Byzantine and some
     message is forgeable, and the mobile seed is only drawn under
     [Mobile] — crash campaigns reproduce unchanged.

     Byzantine: the forge arm (weighted like the drop arm) picks one
     pending message of an already-corrupted sender whose destination
     can step, and steps that destination on it, its payload forged to
     a random forge-pool entry at the delivery; budget discipline is
     inherited from the trial pattern (at most [t] corrupted
     processes), pinned by the qcheck properties in
     test/test_byzantine.ml.

     Mobile: the per-round faulty set is [Fault_model.mobile_faulty]
     of a per-adversary seed, with rounds as windows of [n] steps.  A
     message sent while its sender was faulty is {e omitted} — this
     adversary never delivers it (keyed on [sent_at], so the omission
     is permanent: mobile faults are not message delays). *)
  let adversary (cfg : config) rng =
    let w = cfg.weights in
    let forge_alts = forge_alts_of cfg in
    let mobile =
      match cfg.model with
      | Fault_model.Mobile t when t > 0 ->
          Some (t, Rng.int rng 0x3FFFFFFF)
      | Fault_model.Mobile _ | Fault_model.Crash | Fault_model.Byzantine _ ->
          None
    in
    let buffer obs pid =
      match mobile with
      | None -> Adversary.pending_for obs pid
      | Some (t, seed) ->
          Adversary.pending_for_sent obs pid ~keep:(fun src sent_at ->
              let round = sent_at / max 1 cfg.n in
              not
                (List.mem src
                   (Fault_model.mobile_faulty ~seed ~n:cfg.n ~t ~round)))
    in
    (* each message of the buffer is kept on one [Rng.bool], drawn
       oldest first *)
    let draw () = Rng.bool rng in
    let some_of obs pid =
      match mobile with
      | None -> Adversary.pending_for_sampled obs pid draw
      | Some _ -> List.filter (fun _ -> draw ()) (buffer obs pid)
    in
    (* The droppable list is built only in the arm that uses it, the
       forgeable one only under Byzantine; a pid is picked by rank,
       drawing exactly what [Rng.pick] draws on the list. *)
    let next obs =
      if Adversary.all_correct_decided obs then Adversary.Halt
      else
        match Adversary.count_alive obs with
        | 0 -> Adversary.Halt
        | alive ->
            let can_drop = Adversary.has_droppable obs in
            let w_step = w.deliver_all + w.deliver_some + w.deliver_none in
            let w_drop = if can_drop then w.drop else 0 in
            (* every forgeable message is droppable *)
            let forgeable =
              if forge_alts > 0 && can_drop then Adversary.forgeable obs else []
            in
            let w_forge = if forgeable <> [] then w.drop else 0 in
            let roll = Rng.int rng (w_step + w_drop + w_forge) in
            if roll < w_drop then
              Adversary.Drop (nonempty_subset rng (Adversary.droppable obs))
            else if roll < w_drop + w_forge then
              let i = Rng.int rng (List.length forgeable) in
              let id, pid = List.nth forgeable i in
              let forged = [ (id, Rng.int rng forge_alts) ] in
              Adversary.Forging_step { pid; deliver = [ id ]; forged }
            else
              let pid =
                match Adversary.count_alive ~undecided:true obs with
                | 0 -> Adversary.nth_alive obs (Rng.int rng alive)
                | undecided ->
                    if
                      w.undecided_bias > 0
                      && Rng.int rng (w.undecided_bias + 1) <> 0
                    then
                      Adversary.nth_alive ~undecided:true obs
                        (Rng.int rng undecided)
                    else Adversary.nth_alive obs (Rng.int rng alive)
              in
              let roll = roll - w_drop - w_forge in
              let deliver =
                if roll < w.deliver_all then buffer obs pid
                else if roll < w.deliver_all + w.deliver_some then some_of obs pid
                else []
              in
              Adversary.Step { pid; deliver }
    in
    { Adversary.describe = "fuzz"; next }

  (* the [i]-th blind trial's pattern and adversary *)
  let draw (cfg : config) ~seed i =
    let rng = Rng.split_at (Rng.create ~seed) i in
    let pattern = trial_pattern cfg rng in
    (pattern, adversary cfg rng)

  let play ~record (cfg : config) pattern adv =
    E.run ~record ~max_steps:cfg.max_steps ~n:cfg.n ~inputs:cfg.inputs ~pattern
      adv

  (* a trial's run, timed and counted as one of the campaign's *)
  let counted ~record cfg pattern adv =
    let run = Metrics.time t_trial (fun () -> play ~record cfg pattern adv) in
    Metrics.incr m_trials;
    (pattern, run)

  let trial ?(record = true) (cfg : config) ~seed i =
    check_weights cfg.weights;
    let pattern, adv = draw cfg ~seed i in
    counted ~record cfg pattern adv

  let check_property (run : Run.t) = function
    | K_agreement k -> Kset_spec.k_agreement ~k run.decisions
    | Validity -> Kset_spec.validity ~inputs:run.inputs run.decisions
    | Termination ->
        if run.status = Run.Hit_step_budget then Kset_spec.termination run else None
    | Custom (_, f) -> f run

  let check_run (cfg : config) run =
    List.find_map
      (fun p ->
        Option.map (fun reason -> (p, reason)) (check_property run p))
      cfg.properties

  let replay_schedule ?pattern (cfg : config) sched =
    let pattern = Option.value pattern ~default:cfg.pattern in
    E.run ~max_steps:cfg.max_steps ~n:cfg.n ~inputs:cfg.inputs ~pattern
      (Replay.sequential [ sched ])

  let replay_strict ?pattern (cfg : config) sched =
    let pattern = Option.value pattern ~default:cfg.pattern in
    let adv, check = Replay.strict sched in
    match
      E.run ~max_steps:cfg.max_steps ~n:cfg.n ~inputs:cfg.inputs ~pattern adv
    with
    | run -> check run
    | exception E.Invalid_action why -> Error why

  (* A candidate counts only if it replays to its end and violates:
     the shrunk schedule is then one that [replay_strict] re-violates *)
  let shrink (cfg : config) ~pattern prop sched =
    let candidates = ref 0 in
    let test s =
      incr candidates;
      Metrics.incr m_shrink_candidates;
      match replay_strict ~pattern cfg s with
      | Ok run -> Option.is_some (check_property run prop)
      | Error _ -> false
    in
    let shrunk, replays =
      Metrics.time t_shrink (fun () ->
          if test sched then (ddmin ~test sched, true) else (sched, false))
    in
    (shrunk, !candidates, replays)

  let violation_of (cfg : config) i pattern run prop reason =
    Metrics.incr m_violations;
    let schedule = Trace_io.schedule_of_run run in
    let shrunk, shrink_candidates, replays =
      shrink cfg ~pattern prop schedule
    in
    Metrics.gauge_set g_first i;
    Metrics.gauge_set g_schedule_len (List.length schedule);
    Metrics.gauge_set g_shrunk_len (List.length shrunk);
    {
      trial = i;
      property = property_name prop;
      reason;
      pattern;
      run;
      schedule;
      shrunk;
      shrink_candidates;
      replays;
    }

  (* ---------- greybox trial generation ---------- *)

  (* one mutation pass over a schedule; each arm draws from [rng] in a
     fixed order, so mutants are as deterministic as fresh trials *)
  let mutate_once (cfg : config) rng (view : Cov.view) sched =
    let len = List.length sched in
    let forge_alts = forge_alts_of cfg in
    let random_delivery () =
      (* the forged draw comes first and only under Byzantine, so
         crash-model mutation streams are bit-identical to before *)
      let forged =
        if forge_alts > 0 && Rng.int rng 4 = 0 then
          Some (Rng.int rng forge_alts)
        else None
      in
      { Replay.src = Rng.int rng cfg.n; seq = 1 + Rng.int rng 8; forged }
    in
    match Rng.int rng 4 with
    | 0 ->
        (* splice: our prefix, another entry's suffix *)
        let other =
          view.Cov.entries.(Rng.int rng (Array.length view.Cov.entries))
        in
        let olen = List.length other.Cov.en_sched in
        let cut = Rng.int rng (len + 1) in
        let ocut = Rng.int rng (olen + 1) in
        Listx.take cut sched @ Listx.drop ocut other.Cov.en_sched
    | 1 ->
        (* insert a synthetic step *)
        let pos = Rng.int rng (len + 1) in
        let deliver = List.init (Rng.int rng 3) (fun _ -> random_delivery ()) in
        let step = { Replay.pid = Rng.int rng cfg.n; deliver } in
        Listx.take pos sched @ (step :: Listx.drop pos sched)
    | 2 ->
        (* drop a chunk of steps *)
        if len = 0 then sched
        else
          let pos = Rng.int rng len in
          let k = 1 + Rng.int rng 3 in
          List.filteri (fun i _ -> i < pos || i >= pos + k) sched
    | _ ->
        (* flip the delivery subset of one step *)
        if len = 0 then sched
        else
          let pos = Rng.int rng len in
          List.mapi
            (fun i (s : Replay.step_desc) ->
              if i <> pos then s
              else
                let kept =
                  List.filter (fun _ -> Rng.bool rng) s.Replay.deliver
                in
                let deliver =
                  if Rng.int rng 3 = 0 then random_delivery () :: kept
                  else kept
                in
                { s with Replay.deliver })
            sched

  (* the [i]-th trial of a coverage campaign, a pure function of
     (config, seed, i, view) — and [view] is itself a pure function
     of (config, seed, epoch_floor i), so the blind contract holds *)
  let cov_trial (cfg : config) ~seed (view : Cov.view) i =
    check_weights cfg.weights;
    let rng = Rng.split_at (Rng.create ~seed) i in
    let roll = Rng.int rng Cov.fresh_odds in
    let pattern, adv =
      if view.Cov.total = 0 || roll = 0 then begin
        Metrics.incr m_cov_fresh;
        let pattern = trial_pattern cfg rng in
        (pattern, adversary cfg rng)
      end
      else begin
        Metrics.incr m_cov_mutants;
        let parent = Cov.pick_entry view (Rng.int rng view.Cov.total) in
        let sched = ref parent.Cov.en_sched in
        let ops = 1 + Rng.int rng 2 in
        for _ = 1 to ops do
          sched := mutate_once cfg rng view !sched
        done;
        ( parent.Cov.en_pattern,
          Replay.lenient ~rest:(adversary cfg rng) !sched )
      end
    in
    counted ~record:true cfg pattern adv

  (* ---------- the campaign driver ---------- *)

  (* a payload of another engine, or written under a different
     --model (budget included), describes a different trial stream:
     warn and start fresh, exactly the explorer's --reduction policy *)
  let resume_state (cfg : config) = function
    | None -> (0, None)
    | Some s -> (
        match decode_payload s with
        | Error got ->
            Checkpoint.warn_mismatch ~flag:"engine" ~want:fuzz_engine ~got;
            (0, None)
        | Ok p when p.pl_model <> Fault_model.to_string cfg.model ->
            Checkpoint.warn_mismatch ~flag:"--model"
              ~want:(Fault_model.to_string cfg.model)
              ~got:p.pl_model;
            (0, None)
        | Ok p -> (p.pl_trial, p.pl_cov))

  (* One ticket/watermark loop runs every campaign, blind or coverage,
     on any number of domains; worker 0 runs in the calling domain and
     the others are spawned ({!Explorer.fan_out}).  Workers claim trial indices from a shared
     ticket counter and stop claiming above [best], the lowest
     violating index found so far.  Every ticket below it still runs,
     so the minimum over the reported violations is exactly the first
     violation in trial order, and shrinking (once, after the join) is
     deterministic.  A done-set under the watermark mutex advances the
     clean watermark in ticket order, so a written checkpoint never
     claims an unfinished trial.

     The checkpoint payload is that watermark plus, in coverage mode,
     the canonical corpus state at it.  Trial [i] is a pure function
     of (config, seed, i) — given, in coverage mode, the corpus state
     the payload restores — so a resumed campaign re-derives every
     later trial, any violation and its shrink bit-identically.

     Blind and coverage campaigns differ only in the values below:
     [prepare i] gives ticket [i]'s generator ([trial], or [cov_trial]
     on the epoch view, [None] until that epoch is folded); [buffer]
     turns a clean trial into what the watermark mutex commits with it
     (coverage buffers its [Cov.update]); [payload] is what a
     watermark writes.  The epoch wait cannot deadlock: a waiting
     ticket [i] satisfies [epoch_floor i <= i], and every trial below
     [epoch_floor i] is a claimed ticket that either completes clean
     (advancing the watermark) or violates — and a violation
     [v < epoch_floor i <= i] makes the waiter bail via [best].  For
     the same reason a raising trial is retried once in place, not
     requeued: a requeue would stall the wait.  A second failure
     poisons the campaign, which flushes its checkpoint and re-raises
     after the join. *)
  let campaign ?on_trial ?(domains = 1) ?(ckpt = Checkpoint.ctl ())
      ?resume_payload (cfg : config) ~seed ~trials =
    check_weights cfg.weights;
    let start, cov0 = resume_state cfg resume_payload in
    let model = Fault_model.to_string cfg.model in
    let wm_lock = Mutex.create () in
    let watermark = ref start in
    let done_tbl : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let box = if cfg.coverage then Some (box_of_state ~start cov0) else None in
    (* a trial records its event log only when something reads it: the
       coverage update, an [on_trial] observer or a [Custom] property *)
    let record =
      cfg.coverage || on_trial <> None
      || List.exists
           (function
             | Custom _ -> true | K_agreement _ | Validity | Termination -> false)
           cfg.properties
    in
    let prepare, buffer, payload =
      match box with
      | None ->
          let blind = Some (trial ~record cfg ~seed) in
          let nothing () = () in
          ( (fun _ -> blind),
            (fun _ _ _ -> nothing),
            fun wm ->
              {
                engine = fuzz_engine;
                pl_trial = wm;
                pl_cov = None;
                pl_model = model;
              } )
      | Some b ->
          ( (fun i ->
              let target = Cov.epoch_floor i in
              Mutex.protect wm_lock (fun () ->
                  if b.Cov.base < target && !watermark >= target then
                    Cov.fold_to b target;
                  if b.Cov.base >= target then
                    Hashtbl.find_opt b.Cov.views target
                  else None)
              |> Option.map (fun view -> cov_trial cfg ~seed view)),
            (fun i pattern r ->
              let u = Cov.update_of_run ~pattern r in
              fun () -> Hashtbl.replace b.Cov.pending i u),
            fun wm -> cov_payload ~model wm b )
    in
    (* lock order is checkpoint-then-watermark everywhere: [tick] and
       [flush] hold the checkpoint mutex when they invoke [snap], and
       [note_clean] releases the watermark mutex before ticking *)
    let snap () =
      Marshal.to_string
        (Mutex.protect wm_lock (fun () -> payload !watermark))
        []
    in
    let note_clean i commit =
      let wm =
        Mutex.protect wm_lock (fun () ->
            commit ();
            Hashtbl.replace done_tbl i ();
            while Hashtbl.mem done_tbl !watermark do
              Hashtbl.remove done_tbl !watermark;
              incr watermark
            done;
            !watermark)
      in
      Checkpoint.tick ckpt ~items:wm snap
    in
    let cut = Atomic.make false in
    let poison = Atomic.make None in
    let next_ticket = Atomic.make start in
    let best = Atomic.make max_int in
    let rec lower i =
      let b = Atomic.get best in
      if i < b && not (Atomic.compare_and_set best b i) then lower i
    in
    (* [stop]: a worker raised, and the campaign re-raises it *)
    let stop = Atomic.make false in
    let abandoned i =
      i > Atomic.get best || Atomic.get poison <> None || Atomic.get stop
    in
    (* one poll of the interrupt: a wall-clock expiry folded into it
       (--max-seconds) preserves the watermark exactly like a signal *)
    let halted () =
      if Checkpoint.interrupted ckpt then begin
        Atomic.set cut true;
        true
      end
      else false
    in
    (* polls only while it actually waits, which one domain never does *)
    let rec await i =
      match prepare i with
      | Some _ as gen -> gen
      | None ->
          if abandoned i || halted () then None
          else begin
            Domain.cpu_relax ();
            await i
          end
    in
    let execute w gen i =
      let attempt () =
        let pattern, r = gen i in
        (match on_trial with Some f -> f i r | None -> ());
        (pattern, r, check_run cfg r)
      in
      match attempt () with
      | res -> Ok res
      | exception e -> (
          Checkpoint.note_failure ckpt ~worker:w ~error:(Printexc.to_string e)
            ~requeued:1;
          match attempt () with
          | res -> Ok res
          | exception e2 ->
              (* ledgered as non-requeued before the campaign is torn
                 down, so a resumed run can see which ticket poisoned
                 which worker *)
              let bt = Printexc.get_raw_backtrace () in
              Checkpoint.note_failure ckpt ~worker:w
                ~error:(Printexc.to_string e2) ~requeued:0;
              Metrics.incr m_poisoned;
              Error (e2, bt))
    in
    let worker w () =
      let rec loop found =
        let i = Atomic.fetch_and_add next_ticket 1 in
        if i >= trials || abandoned i || halted () then found
        else
          match await i with
          | None -> found
          | Some gen -> (
              match execute w gen i with
              | Ok (pattern, r, None) ->
                  note_clean i (buffer i pattern r);
                  loop found
              | Ok (pattern, r, Some (prop, reason)) ->
                  lower i;
                  loop ((i, pattern, r, prop, reason) :: found)
              | Error eb ->
                  Atomic.set poison (Some eb);
                  found)
      in
      loop []
    in
    if domains > 1 then Metrics.add m_domains domains;
    let found =
      Metrics.time t_campaign (fun () ->
          Explorer.fan_out ~domains
            ~stop:(fun () -> Atomic.set stop true)
            (fun w -> worker w ()))
      |> List.concat
    in
    (match Atomic.get poison with
    | Some (e, bt) ->
        (* the poisoned-ticket ledger entry and the clean watermark
           survive the raise: the campaign dies loudly but resumably *)
        Checkpoint.flush ckpt snap;
        Printexc.raise_with_backtrace e bt
    | None -> ());
    let cut = Atomic.get cut in
    if cut then Checkpoint.flush ckpt snap;
    (* The built-in properties read only the decisions, inputs and
       status, which an unrecorded run carries exactly.  A violation
       reports the recorded run, so an unrecorded campaign re-runs its
       first violating trial once, recorded, outside [fuzz.trials] and
       the [fuzz.trial] timer (trial [i] is a pure function of (config,
       seed, i)), and checks it again: Termination's reason counts the
       event log. *)
    let rerun i pattern =
      let _, adv = draw cfg ~seed i in
      let r = play ~record:true cfg pattern adv in
      match check_run cfg r with
      | Some (prop, reason) -> (r, prop, reason)
      | None ->
          failwith
            (Printf.sprintf "Fuzz: trial %d does not violate when recorded" i)
    in
    let by_trial (a, _, _, _, _) (b, _, _, _, _) = compare a b in
    let outcome =
      match List.sort by_trial found with
      | (i, pattern, r, prop, reason) :: _ ->
          let r, prop, reason =
            if record then (r, prop, reason) else rerun i pattern
          in
          Violation_found (violation_of cfg i pattern r prop reason)
      | [] ->
          (* the contiguous clean watermark — what the checkpoint
             recorded — not the racy count of claimed tickets *)
          if cut then Budget_exhausted { trials = !watermark }
          else Clean { trials }
    in
    (* campaign-end coverage reports the campaign up to its clean
       watermark: every trial below a violation, and nothing above it *)
    ( outcome,
      Option.map
        (fun b ->
          Cov.fold_tail ~below:!watermark b;
          let m = b.Cov.master in
          {
            cov_trials = !watermark;
            cov_ids = m.Cov.ids;
            cov_pairs = Hashtbl.length m.Cov.pairs;
            cov_corpus =
              List.rev_map
                (fun (e : Cov.entry) -> (e.Cov.en_pattern, e.Cov.en_sched))
                m.Cov.corpus;
          })
        box )

  let run ?on_trial ?domains ?ckpt ?resume_payload cfg ~seed ~trials =
    fst (campaign ?on_trial ?domains ?ckpt ?resume_payload cfg ~seed ~trials)

  let run_par ?on_trial ?domains ?ckpt ?resume_payload cfg ~seed ~trials =
    let domains =
      match domains with Some d -> d | None -> Explorer.default_domains ()
    in
    run ?on_trial ~domains ?ckpt ?resume_payload cfg ~seed ~trials
end
