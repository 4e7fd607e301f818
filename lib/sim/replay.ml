type delivery = { src : Pid.t; seq : int; forged : int option }
type step_desc = { pid : Pid.t; deliver : delivery list }

(* A delivery is named by its message's send rank on its channel:
   the k-th message [src] sent to [dst] has [seq = k], in whatever
   order the run delivered the channel.  One pass over the sends ranks
   every message.  A message is delivered once, so it is forged at
   most once. *)
let project ~keep run =
  let ranks = Hashtbl.create 64 and sent = Hashtbl.create 16 in
  List.iter
    (fun (ev : Event.t) ->
      List.iter
        (fun (id, dst) ->
          let ch = (ev.pid, dst) in
          let rank = 1 + Option.value ~default:0 (Hashtbl.find_opt sent ch) in
          Hashtbl.replace sent ch rank;
          Hashtbl.replace ranks id rank)
        ev.sent)
    run.Run.events;
  List.filter_map
    (fun (ev : Event.t) ->
      if not (keep ev.pid) then None
      else
        Some
          {
            pid = ev.pid;
            deliver =
              List.map
                (fun (id, src) ->
                  {
                    src;
                    seq = Hashtbl.find ranks id;
                    forged = List.assoc_opt id run.Run.forges;
                  })
                ev.delivered;
          })
    run.Run.events

(* Tracks, per channel, the ids of all messages ever seen pending, in
   id (= send) order: the seq-th element is the seq-th sent message of
   the channel.  Each channel is an append-only int array with a
   length, so [note] appends in O(1) and [nth_id] is one array read.
   The channels (one per ordered pid pair) are allocated on the first
   [note], which brings the system size. *)
module Channel_log = struct
  type chan = { mutable ids : int array; mutable len : int }
  type t = { mutable n : int; mutable chans : chan array }

  let create () : t = { n = 0; chans = [||] }

  (* {!Adversary.fold_pending} walks each inbox oldest first, so each
     channel's messages come in id order, and every message is
     observed pending before it leaves (a replay adversary notes each
     observation before it picks a delivery, and [Drop]s come from
     the same observation): an id not yet logged on its channel is
     larger than every id that is, and appending exactly the ids
     beyond the channel's last one logs each message once, in send
     order.  Nothing is allocated unless a channel grows. *)
  let note_one (t : t) ~id ~src ~dst ~sent_at:_ =
    let ch = t.chans.((src * t.n) + dst) in
    if ch.len = 0 || id > ch.ids.(ch.len - 1) then begin
      if ch.len = Array.length ch.ids then begin
        let ids = Array.make (max 4 (2 * ch.len)) 0 in
        Array.blit ch.ids 0 ids 0 ch.len;
        ch.ids <- ids
      end;
      ch.ids.(ch.len) <- id;
      ch.len <- ch.len + 1
    end;
    t

  let note (t : t) obs =
    if t.n = 0 then begin
      let n = Adversary.n obs in
      t.n <- n;
      t.chans <- Array.init (n * n) (fun _ -> { ids = [||]; len = 0 })
    end;
    ignore (Adversary.fold_pending note_one obs t)

  let nth_id (t : t) ~src ~dst ~seq =
    if src < 0 || src >= t.n || dst < 0 || dst >= t.n then None
    else
      let ch = t.chans.((src * t.n) + dst) in
      if seq >= 1 && seq <= ch.len then Some ch.ids.(seq - 1) else None
end

(* The pending message a delivery names, paired with its forgery *)
let resolve log obs pid { src; seq; forged } =
  match Channel_log.nth_id log ~src ~dst:pid ~seq with
  | Some id when Adversary.is_pending_for obs pid id -> Some (id, forged)
  | Some _ | None -> None

(* Every delivery of [desc] resolved, or why the step cannot be taken *)
let executable log obs desc =
  if not (Adversary.is_alive obs desc.pid) then
    Error (Printf.sprintf "p%d cannot take a step" desc.pid)
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | d :: rest -> (
          match resolve log obs desc.pid d with
          | Some r -> go (r :: acc) rest
          | None ->
              Error
                (Printf.sprintf "p%d has no pending message from p%d #%d"
                   desc.pid d.src d.seq))
    in
    go [] desc.deliver

(* A resolved step is one engine step, its recorded forgeries
   delivered with it *)
let action_of_step pid resolved =
  let deliver = List.map fst resolved in
  match
    List.filter_map
      (function id, Some alt -> Some (id, alt) | _, None -> None)
      resolved
  with
  | [] -> Adversary.Step { pid; deliver }
  | forged -> Adversary.Forging_step { pid; deliver; forged }

let make_adversary ~describe pick =
  let log = Channel_log.create () in
  let next obs = Channel_log.note log obs; pick log obs in
  { Adversary.describe; next }

(* Best-effort resolution for mutated schedules: each delivery is
   resolved independently, and the unresolvable ones are simply not
   delivered; a message named twice is delivered once, with one of
   its forgeries.  Stepping a process with a subset of its recorded
   receives is always engine-valid, so a mutant keeps as much of its
   parent's structure as the current run admits. *)
let resolve_subset log obs desc =
  List.filter_map (resolve log obs desc.pid) desc.deliver
  |> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)

let lenient ?rest descs =
  let queue = ref descs in
  let pick log obs =
    let rec advance () =
      match !queue with
      | [] -> (
          match rest with
          | None -> Adversary.Halt
          | Some (a : Adversary.t) -> a.next obs)
      | desc :: tl ->
          queue := tl;
          if Adversary.is_alive obs desc.pid then
            action_of_step desc.pid (resolve_subset log obs desc)
          else advance ()
    in
    advance ()
  in
  make_adversary ~describe:"replay-lenient" pick

(* [on_stuck] hears why the replay stopped short, once, before it
   halts; [i] counts the descriptors taken so far *)
let replay_in_order ~on_stuck streams =
  let queues = ref streams and i = ref 0 in
  let pick log obs =
    let rec advance () =
      match !queues with
      | [] -> Adversary.Halt
      | [] :: rest ->
          queues := rest;
          advance ()
      | (desc :: rest_stream) :: rest -> (
          match executable log obs desc with
          | Ok resolved ->
              queues := rest_stream :: rest;
              incr i;
              action_of_step desc.pid resolved
          | Error why ->
              on_stuck (Printf.sprintf "step %d: %s" (!i + 1) why);
              Adversary.Halt)
    in
    advance ()
  in
  make_adversary ~describe:"replay-sequential" pick

let sequential streams = replay_in_order ~on_stuck:ignore streams

let strict sched =
  let stuck = ref None in
  let adv =
    replay_in_order ~on_stuck:(fun why -> stuck := Some why) [ sched ]
  in
  let check run =
    match !stuck with
    | Some why -> Error why
    | None ->
        let steps = Run.step_count run in
        if steps >= List.length sched then Ok run
        else
          Error
            (Printf.sprintf "step %d: not reached within the step budget"
               (steps + 1))
  in
  (adv, check)
