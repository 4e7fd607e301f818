module Rng = Ksa_prim.Rng

type pending = { id : int; src : Pid.t; dst : Pid.t; sent_at : int }

(* The configuration's own copy-on-write rows, shared, not copied: the
   per-destination inboxes (id-descending, each envelope paired with
   the engine's packed triple, which nothing here reads) and the
   decided row.  The payload type is existential, so no accessor can
   reach a payload. *)
type obs =
  | View : {
      time : int;
      n : int;
      inbox : ('m Envelope.t * int) list array;
      decided : (Value.t * int) option array;
      pattern : Failure_pattern.t;
    }
      -> obs

type action =
  | Step of { pid : Pid.t; deliver : int list }
  | Forging_step of { pid : Pid.t; deliver : int list; forged : (int * int) list }
  | Drop of int list
  | Halt

type t = { describe : string; next : obs -> action }

let view ~time ~n ~inbox ~decided ~pattern =
  View { time; n; inbox; decided; pattern }

(* The accessors below run on every step of a recorded run: each is a
   pid loop or one walk of an inbox, with no throwaway lists or
   per-call closures; only the id lists they return are allocated. *)

let time (View v) = v.time
let n (View v) = v.n
let pattern (View v) = v.pattern

let decision (View v) p =
  match v.decided.(p) with Some (x, _) -> Some x | None -> None

let has_decided (View v) p =
  match v.decided.(p) with Some _ -> true | None -> false

(* p may take the next step (at time [time obs + 1]) iff its crash
   time, if any, is not exceeded: a process with crash time ct takes
   no step with index > ct. *)
let can_step (View v) p =
  match Failure_pattern.crash_time v.pattern p with
  | None -> true
  | Some ct -> v.time + 1 <= ct

let is_alive obs p = p >= 0 && p < n obs && can_step obs p

let eligible undecided obs p =
  can_step obs p && not (undecided && has_decided obs p)

let count_alive ?(undecided = false) obs =
  let c = ref 0 in
  for p = 0 to n obs - 1 do
    if eligible undecided obs p then incr c
  done;
  !c

let rec nth_from undecided obs r p =
  if p >= n obs then invalid_arg "Adversary.nth_alive: rank out of range"
  else if eligible undecided obs p then
    if r = 0 then p else nth_from undecided obs (r - 1) (p + 1)
  else nth_from undecided obs r (p + 1)

let nth_alive ?(undecided = false) obs r =
  if r < 0 then invalid_arg "Adversary.nth_alive: rank out of range";
  nth_from undecided obs r 0

let alive_where undecided obs =
  let acc = ref [] in
  for p = n obs - 1 downto 0 do
    if eligible undecided obs p then acc := p :: !acc
  done;
  !acc

let alive obs = alive_where false obs
let undecided_alive obs = alive_where true obs

let rec correct_decided_from obs p =
  p >= Failure_pattern.n (pattern obs)
  || (Failure_pattern.is_faulty (pattern obs) p || has_decided obs p)
     && correct_decided_from obs (p + 1)

let all_correct_decided obs = correct_decided_from obs 0

(* ---- walks of one inbox, newest first: consing comes out ascending ---- *)

let rec ids_for allow acc = function
  | [] -> acc
  | ((e : _ Envelope.t), _) :: rest ->
      let keep = match allow with None -> true | Some f -> f e.src e.dst in
      ids_for allow (if keep then e.id :: acc else acc) rest

let pending_for ?allow (View v) p = ids_for allow [] v.inbox.(p)

let rec ids_sent keep acc = function
  | [] -> acc
  | ((e : _ Envelope.t), _) :: rest ->
      ids_sent keep (if keep e.src e.sent_at then e.id :: acc else acc) rest

let pending_for_sent ~keep (View v) p = ids_sent keep [] v.inbox.(p)

(* [i] is the rank of the list's head, the oldest message ranking 0 *)
let rec ids_ranked bits i acc = function
  | [] -> acc
  | ((e : _ Envelope.t), _) :: rest ->
      let acc = if bits land (1 lsl i) <> 0 then e.id :: acc else acc in
      ids_ranked bits (i - 1) acc rest

(* [keep] is called oldest first; its answers go into a rank mask, so
   only the kept ids are consed *)
let pending_for_sampled (View v) p keep =
  let box = v.inbox.(p) in
  let m = List.length box in
  if m < Sys.int_size - 1 then begin
    let bits = ref 0 in
    for i = 0 to m - 1 do
      if keep () then bits := !bits lor (1 lsl i)
    done;
    ids_ranked !bits (m - 1) [] box
  end
  else List.filter (fun _ -> keep ()) (ids_for None [] box)

(* the walk stops at the first smaller id *)
let rec holds id = function
  | [] -> false
  | ((e : _ Envelope.t), _) :: rest -> e.id = id || (e.id > id && holds id rest)

let is_pending_for (View v) p id = p >= 0 && p < v.n && holds id v.inbox.(p)

(* ---- the sends of crashed processes, across the inboxes ---- *)

let droppable_send (View v) (e : _ Envelope.t) =
  Failure_pattern.is_crashed v.pattern e.src ~time:v.time

let rec crashed_ids obs acc = function
  | [] -> acc
  | ((e : _ Envelope.t), _) :: rest ->
      crashed_ids obs (if droppable_send obs e then e.id :: acc else acc) rest

let rec any_crashed obs = function
  | [] -> false
  | ((e : _ Envelope.t), _) :: rest ->
      droppable_send obs e || any_crashed obs rest

let droppable (View v as obs) =
  let acc = ref [] in
  for p = 0 to v.n - 1 do
    acc := crashed_ids obs !acc v.inbox.(p)
  done;
  List.sort Int.compare !acc

let rec any_from (View v as obs) p =
  p < v.n && (any_crashed obs v.inbox.(p) || any_from obs (p + 1))

let has_droppable obs = any_from obs 0

(* Under the Byzantine model the corrupted set rides the failure
   pattern (corruption subsumes crashing), so a forged delivery carries
   a droppable message — a pending send of an already-corrupted
   process — to a process that can still step. *)
let forgeable (View v as obs) =
  let acc = ref [] in
  for p = 0 to v.n - 1 do
    if can_step obs p then
      List.iter
        (fun ((e : _ Envelope.t), _) ->
          if droppable_send obs e then acc := (e.id, p) :: !acc)
        v.inbox.(p)
  done;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc

(* ---- every pending message ---- *)

(* one inbox oldest first: the recursion visits the tail before the
   head *)
let rec fold_box f acc = function
  | [] -> acc
  | ((e : _ Envelope.t), _) :: rest ->
      let acc = fold_box f acc rest in
      f acc ~id:e.id ~src:e.src ~dst:e.dst ~sent_at:e.sent_at

let fold_pending f (View v) acc =
  let acc = ref acc in
  for p = 0 to v.n - 1 do
    acc := fold_box f !acc v.inbox.(p)
  done;
  !acc

let pending obs =
  fold_pending
    (fun acc ~id ~src ~dst ~sent_at -> { id; src; dst; sent_at } :: acc)
    obs []
  |> List.sort (fun (a : pending) b -> Int.compare a.id b.id)

let obs_of_pending ~time ~n ~pattern ~decided pending =
  let inbox = Array.make n [] in
  let rec add last = function
    | [] -> ()
    | (m : pending) :: rest ->
        if m.id = last then invalid_arg "Adversary.obs_of_pending: duplicate id";
        if m.dst < 0 || m.dst >= n then
          invalid_arg "Adversary.obs_of_pending: destination out of range";
        let e =
          { Envelope.id = m.id; src = m.src; dst = m.dst; sent_at = m.sent_at;
            payload = () }
        in
        inbox.(m.dst) <- (e, 0) :: inbox.(m.dst);
        add m.id rest
  in
  (* ascending ids, consed: every inbox comes out newest first *)
  add min_int (List.sort (fun (a : pending) b -> Int.compare a.id b.id) pending);
  let rows = Array.make n None in
  List.iter (fun (p, x) -> rows.(p) <- Some (x, 0)) decided;
  view ~time ~n ~inbox ~decided:rows ~pattern

(* Prefer scheduling processes that still have work (pending messages
   or no decision yet); halt when every correct process has decided. *)
let fair ~rng =
  let next obs =
    if all_correct_decided obs then Halt
    else
      match alive obs with
      | [] -> Halt
      | candidates ->
          let pid =
            (* bias towards undecided processes to reach termination fast *)
            match undecided_alive obs with
            | [] -> Rng.pick rng candidates
            | undecided ->
                if Rng.int rng 4 = 0 then Rng.pick rng candidates
                else Rng.pick rng undecided
          in
          Step { pid; deliver = pending_for obs pid }
  in
  { describe = "fair"; next }

let round_robin_next cursor obs ~allow =
  match alive obs with
  | [] -> Halt
  | candidates ->
      let after = List.filter (fun p -> p > !cursor) candidates in
      let pid = match after with p :: _ -> p | [] -> List.hd candidates in
      cursor := pid;
      Step { pid; deliver = pending_for ~allow obs pid }

let round_robin () =
  let cursor = ref (-1) in
  let next obs =
    if all_correct_decided obs then Halt
    else round_robin_next cursor obs ~allow:(fun _ _ -> true)
  in
  { describe = "round-robin"; next }

let fair_lossy ~rng ~p_defer =
  let next obs =
    if all_correct_decided obs then Halt
    else
      match alive obs with
      | [] -> Halt
      | candidates ->
          let pid =
            (* like [fair]: decided processes must keep taking steps
               (they may be replying on behalf of others — quorum
               protocols rely on it), so only bias towards undecided
               ones *)
            match undecided_alive obs with
            | [] -> Rng.pick rng candidates
            | undecided ->
                if Rng.int rng 4 = 0 then Rng.pick rng candidates
                else Rng.pick rng undecided
          in
          let deliver =
            List.filter (fun _ -> Rng.float rng >= p_defer) (pending_for obs pid)
          in
          Step { pid; deliver }
  in
  { describe = Printf.sprintf "fair-lossy(%.2f)" p_defer; next }

let group_table ~n groups =
  let tbl = Array.make n (-1) in
  List.iteri
    (fun gi members ->
      List.iter
        (fun p ->
          if p < 0 || p >= n then invalid_arg "Adversary: pid out of range";
          if tbl.(p) <> -1 then invalid_arg "Adversary: overlapping groups";
          tbl.(p) <- gi)
        members)
    groups;
  (* ungrouped processes form one implicit extra group *)
  let extra = List.length groups in
  Array.iteri (fun p g -> if g = -1 then tbl.(p) <- extra) tbl;
  tbl

let partition ~groups ?release () =
  let release = Option.value release ~default:all_correct_decided in
  let cursor = ref (-1) in
  let released = ref false in
  let tbl = ref [||] in
  let next obs =
    if Array.length !tbl = 0 then tbl := group_table ~n:(n obs) groups;
    if (not !released) && release obs then released := true;
    if all_correct_decided obs && !released then Halt
    else
      let allow src dst = !released || !tbl.(src) = !tbl.(dst) in
      round_robin_next cursor obs ~allow
  in
  { describe = "partition"; next }

let sequential_solo ~groups =
  let stage = ref 0 in
  let cursor = ref (-1) in
  let tbl = ref [||] in
  let n_stages = List.length groups in
  let groups_arr = Array.of_list groups in
  let next obs =
    if Array.length !tbl = 0 then tbl := group_table ~n:(n obs) groups;
    (* advance past stages whose alive members have all decided *)
    let stage_done gi =
      List.for_all
        (fun p -> has_decided obs p || not (is_alive obs p))
        groups_arr.(gi)
    in
    while !stage < n_stages && stage_done !stage do
      incr stage
    done;
    if !stage >= n_stages then
      if all_correct_decided obs then Halt
      else
        (* all groups done solo: release everything, round-robin *)
        round_robin_next cursor obs ~allow:(fun _ _ -> true)
    else
      let gi = !stage in
      let members = List.filter (is_alive obs) groups_arr.(gi) in
      match members with
      | [] -> Halt (* unreachable: stage_done would have advanced *)
      | _ :: _ ->
          (* round-robin over the stage's alive members so everyone
             makes progress (undecided members included on every lap) *)
          let after = List.filter (fun p -> p > !cursor) members in
          let p = match after with q :: _ -> q | [] -> List.hd members in
          cursor := p;
          let allow src dst = !tbl.(src) = gi && !tbl.(dst) = gi in
          Step { pid = p; deliver = pending_for ~allow obs p }
  in
  { describe = "sequential-solo"; next }

let eventually_lockstep ~rng ~gst ~p_defer =
  let cursor = ref (-1) in
  let next obs =
    if all_correct_decided obs then Halt
    else if time obs + 1 < gst then
      match alive obs with
      | [] -> Halt
      | candidates ->
          let pid = Rng.pick rng candidates in
          let deliver =
            List.filter (fun _ -> Rng.float rng >= p_defer) (pending_for obs pid)
          in
          Step { pid; deliver }
    else round_robin_next cursor obs ~allow:(fun _ _ -> true)
  in
  { describe = Printf.sprintf "eventually-lockstep(gst=%d)" gst; next }
