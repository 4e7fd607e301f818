type delivery = { src : Pid.t; seq : int; forged : int option }
type step_desc = { pid : Pid.t; deliver : delivery list }

let project ~keep run =
  (* per-channel delivered counters, keyed by (src, dst) *)
  let counts = Hashtbl.create 64 in
  let bump src dst =
    let key = (src, dst) in
    let c = Option.value ~default:0 (Hashtbl.find_opt counts key) + 1 in
    Hashtbl.replace counts key c;
    c
  in
  List.filter_map
    (fun (ev : Event.t) ->
      let deliveries =
        List.map
          (fun (id, src) ->
            (src, bump src ev.pid, List.assoc_opt id run.Run.forges))
          ev.delivered
      in
      if keep ev.pid then
        Some
          {
            pid = ev.pid;
            deliver =
              List.map (fun (src, seq, forged) -> { src; seq; forged })
                deliveries;
          }
      else None)
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

let executable log obs desc =
  let resolve { src; seq; forged } =
    match Channel_log.nth_id log ~src ~dst:desc.pid ~seq with
    | Some id when Adversary.is_pending_for obs desc.pid id -> Some (id, forged)
    | Some _ | None -> None
  in
  let ids = List.map resolve desc.deliver in
  if List.for_all Option.is_some ids then Some (List.map Option.get ids)
  else None

(* A resolved step is one engine [Step] preceded by one [Forge] per
   delivery that recorded a forged payload: the adversary re-corrupts
   each message just before it is delivered, exactly reproducing the
   payloads the recorded run saw.  The queue in [make_adversary] feeds
   these to the engine one action at a time. *)
let actions_of_step pid resolved =
  let forges =
    List.filter_map
      (fun (id, forged) ->
        Option.map (fun alt -> Adversary.Forge { id; alt }) forged)
      resolved
  in
  forges @ [ Adversary.Step { pid; deliver = List.map fst resolved } ]

let make_adversary ~describe pick =
  let log = Channel_log.create () in
  let queue = ref [] in
  let next obs =
    match !queue with
    | a :: tl ->
        queue := tl;
        a
    | [] -> (
        Channel_log.note log obs;
        match pick log obs with
        | [] -> Adversary.Halt
        | a :: tl ->
            queue := tl;
            a)
  in
  { Adversary.describe; next }

let interleave streams =
  let queues = Array.of_list (List.map ref streams) in
  let pick log obs =
    let rec try_from i =
      if i >= Array.length queues then []
      else
        match !(queues.(i)) with
        | [] -> try_from (i + 1)
        | desc :: rest -> (
            match executable log obs desc with
            | Some resolved ->
                queues.(i) := rest;
                actions_of_step desc.pid resolved
            | None -> try_from (i + 1))
    in
    try_from 0
  in
  make_adversary ~describe:"replay-interleave" pick

(* Best-effort resolution for mutated schedules: each delivery is
   resolved independently, and the unresolvable ones are simply not
   delivered.  Stepping a process with a subset of its recorded
   receives is always engine-valid, so a mutant keeps as much of its
   parent's structure as the current run admits. *)
let resolve_subset log obs desc =
  List.filter_map
    (fun { src; seq; forged } ->
      match Channel_log.nth_id log ~src ~dst:desc.pid ~seq with
      | Some id when Adversary.is_pending_for obs desc.pid id -> Some (id, forged)
      | Some _ | None -> None)
    desc.deliver
  |> List.sort_uniq compare

let lenient ?rest descs =
  let queue = ref descs in
  let pick log obs =
    let rec advance () =
      match !queue with
      | [] -> (
          match rest with
          | None -> []
          | Some (a : Adversary.t) -> [ a.next obs ])
      | desc :: tl ->
          queue := tl;
          if Adversary.is_alive obs desc.pid then
            actions_of_step desc.pid (resolve_subset log obs desc)
          else advance ()
    in
    advance ()
  in
  make_adversary ~describe:"replay-lenient" pick

let sequential streams =
  let queues = ref streams in
  let pick log obs =
    let rec advance () =
      match !queues with
      | [] -> []
      | [] :: rest ->
          queues := rest;
          advance ()
      | (desc :: rest_stream) :: rest -> (
          match executable log obs desc with
          | Some resolved ->
              queues := rest_stream :: rest;
              actions_of_step desc.pid resolved
          | None -> [])
    in
    advance ()
  in
  make_adversary ~describe:"replay-sequential" pick
