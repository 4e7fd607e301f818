(* Fuzz / property tests of the engine's structural invariants: for
   every algorithm, adversary and seed, the recorded run must satisfy
   the model's bookkeeping laws. *)

module Sim = Ksa_sim
module FP = Sim.Failure_pattern
module Adv = Sim.Adversary
module Rng = Ksa_prim.Rng

let distinct = Sim.Value.distinct_inputs

type runner = { name : string; go : seed:int -> n:int -> f:int -> Sim.Run.t }

let runners =
  let mk_adv rng = function
    | 0 -> Adv.fair ~rng
    | 1 -> Adv.round_robin ()
    | 2 -> Adv.fair_lossy ~rng ~p_defer:0.5
    | _ -> Adv.eventually_lockstep ~rng ~gst:20 ~p_defer:0.5
  in
  let kset ~seed ~n ~f =
    let l = max 1 (n - f) in
    let module K = Ksa_algo.Kset_flp.Make (struct
      let l = l
    end) in
    let module E = Sim.Engine.Make (K) in
    let rng = Rng.create ~seed in
    let dead = Rng.sample rng f (List.init n Fun.id) in
    E.run ~max_steps:5_000 ~n ~inputs:(distinct n)
      ~pattern:(FP.initial_dead ~n ~dead)
      (mk_adv rng (seed mod 4))
  in
  let naive ~seed ~n ~f =
    ignore f;
    let module N = Ksa_algo.Naive_min.Make (struct
      let wait_for = 2
    end) in
    let module E = Sim.Engine.Make (N) in
    let rng = Rng.create ~seed in
    E.run ~max_steps:5_000 ~n ~inputs:(distinct n) ~pattern:(FP.none ~n)
      (mk_adv rng (seed mod 4))
  in
  let echo ~seed ~n ~f =
    let rng = Rng.create ~seed in
    let dead = Rng.sample rng (min f (n - 1)) (List.init n Fun.id) in
    Test_util.Echo_engine.run ~max_steps:5_000 ~n ~inputs:(distinct n)
      ~pattern:(FP.initial_dead ~n ~dead)
      (mk_adv rng (seed mod 4))
  in
  [ { name = "kset"; go = kset }; { name = "naive"; go = naive };
    { name = "echo"; go = echo } ]

(* ---------- invariants ---------- *)

let check_invariants (run : Sim.Run.t) =
  let events = run.Sim.Run.events in
  (* 1. event times are 1, 2, 3, ... *)
  List.iteri
    (fun i (ev : Sim.Event.t) ->
      if ev.time <> i + 1 then failwith "times not consecutive")
    events;
  (* 2. every delivered id was sent exactly once, before its delivery,
        to the delivering process *)
  let sent = Hashtbl.create 64 in
  List.iter
    (fun (ev : Sim.Event.t) ->
      List.iter
        (fun (id, dst) ->
          if Hashtbl.mem sent id then failwith "duplicate message id";
          Hashtbl.add sent id (ev.pid, dst, ev.time))
        ev.sent)
    events;
  let delivered = Hashtbl.create 64 in
  List.iter
    (fun (ev : Sim.Event.t) ->
      List.iter
        (fun (id, src) ->
          if Hashtbl.mem delivered id then failwith "double delivery";
          Hashtbl.add delivered id ();
          match Hashtbl.find_opt sent id with
          | None -> failwith "delivered a never-sent message"
          | Some (s, dst, t) ->
              if s <> src then failwith "sender mismatch";
              if dst <> ev.pid then failwith "recipient mismatch";
              if t > ev.time then failwith "delivered before being sent")
        ev.delivered)
    events;
  (* 3. crashed processes take no steps past their crash time *)
  List.iter
    (fun (ev : Sim.Event.t) ->
      match FP.crash_time run.Sim.Run.pattern ev.pid with
      | Some ct when ev.time > ct -> failwith "crashed process stepped"
      | Some _ | None -> ())
    events;
  (* 4. decisions match the event log exactly *)
  let event_decisions =
    List.filter_map
      (fun (ev : Sim.Event.t) ->
        Option.map (fun v -> (ev.pid, v, ev.time)) ev.decision)
      events
  in
  if List.sort compare event_decisions <> run.Sim.Run.decisions then
    failwith "decision list does not match events";
  (* 5. at most one decision per process *)
  let pids = List.map (fun (p, _, _) -> p) run.Sim.Run.decisions in
  if List.length (List.sort_uniq compare pids) <> List.length pids then
    failwith "process decided twice";
  (* 6. state ids are valid registry ids, and the trace mirrors the
     event log: per pid, the event state-id sequence equals the trace
     step row *)
  List.iter
    (fun (ev : Sim.Event.t) ->
      if ev.state_id < 0 then failwith "bad state id")
    events;
  let trace = run.Sim.Run.trace in
  for p = 0 to run.Sim.Run.n - 1 do
    let from_events =
      List.filter_map
        (fun (ev : Sim.Event.t) ->
          if ev.pid = p then Some ev.state_id else None)
        events
    in
    let from_trace =
      Array.to_list (Array.map (fun (s : Sim.Trace.step) -> s.state_id) trace.Sim.Trace.steps.(p))
    in
    if from_events <> from_trace then failwith "trace diverges from event log"
  done

let prop_engine_invariants =
  QCheck.Test.make ~name:"engine invariants over fuzzed runs" ~count:150
    QCheck.(triple small_int (int_range 2 8) (int_range 0 3))
    (fun (seed, n, f) ->
      QCheck.assume (f < n);
      List.for_all
        (fun r ->
          match check_invariants (r.go ~seed ~n ~f) with
          | () -> true
          | exception Failure msg ->
              QCheck.Test.fail_reportf "%s: %s" r.name msg)
        runners)

(* a chaos-monkey adversary: emits syntactically random actions; the
   engine must either apply them or reject them with Invalid_action,
   and the resulting run must still satisfy all invariants *)
let chaos_monkey rng =
  let steps = ref 0 in
  let next (obs : Adv.obs) =
    incr steps;
    if !steps > 300 then Adv.Halt
    else
      match Rng.int rng 10 with
      | 0 -> Adv.Drop [ Rng.int rng 50 ]
      | 1 -> Adv.Step { pid = Rng.int rng (Adv.n obs + 2); deliver = [] }
      | 2 -> Adv.Step { pid = Rng.int rng (Adv.n obs); deliver = [ Rng.int rng 100 ] }
      | _ -> (
          match Adv.alive obs with
          | [] -> Adv.Halt
          | candidates ->
              let pid = Rng.pick rng candidates in
              let mine = Adv.pending_for obs pid in
              let deliver = List.filter (fun _ -> Rng.bool rng) mine in
              Adv.Step { pid; deliver })
  in
  { Adv.describe = "chaos-monkey"; next }

let prop_chaos_monkey_cannot_corrupt =
  QCheck.Test.make ~name:"invalid actions are rejected, state stays sound"
    ~count:60
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let module E = Test_util.Echo_engine in
      let pattern = FP.of_crash_times ~n ((0, 3) :: []) in
      let adv = chaos_monkey rng in
      let config = ref (E.init ~n ~inputs:(distinct n) ()) in
      let rejected = ref 0 in
      (try
         for _ = 1 to 200 do
           match adv.Adv.next (E.observe ~pattern !config) with
           | exception _ -> ()
           | action -> (
               match E.apply ~pattern !config action with
               | Some c -> config := c
               | None -> raise Exit
               | exception E.Invalid_action _ -> incr rejected)
         done
       with Exit -> ());
      let run = E.finish !config ~pattern Sim.Run.Halted_by_adversary in
      match check_invariants run with
      | () -> true
      | exception Failure msg -> QCheck.Test.fail_reportf "corrupted: %s" msg)

let suites =
  [
    Test_util.qsuite "sim.engine_properties"
      [ prop_engine_invariants; prop_chaos_monkey_cannot_corrupt ];
  ]
