module Rng = Ksa_prim.Rng

type pending = { id : int; src : Pid.t; dst : Pid.t; sent_at : int }

type obs = {
  time : int;
  n : int;
  pending : pending list;
  decided : (Pid.t * Value.t) list;
  pattern : Failure_pattern.t;
  steps_taken : Pid.t -> int;
}

type action =
  | Step of { pid : Pid.t; deliver : int list }
  | Drop of int list
  | Forge of { id : int; alt : int }
  | Halt

type t = { describe : string; next : obs -> action }

(* The helpers below run on every step of a recorded run: each is a
   pid loop or one recursion over [obs.pending], with no throwaway
   pid lists or per-call closures. *)

(* p may take the next step (at time obs.time + 1) iff its crash time,
   if any, is not exceeded: a process with crash time ct takes no step
   with index > ct. *)
let can_step obs p =
  match Failure_pattern.crash_time obs.pattern p with
  | None -> true
  | Some ct -> obs.time + 1 <= ct

let has_decided obs p = List.mem_assoc p obs.decided

let alive obs =
  let acc = ref [] in
  for p = obs.n - 1 downto 0 do
    if can_step obs p then acc := p :: !acc
  done;
  !acc

let undecided_alive obs =
  let acc = ref [] in
  for p = obs.n - 1 downto 0 do
    if can_step obs p && not (has_decided obs p) then acc := p :: !acc
  done;
  !acc

let rec correct_decided_from obs p =
  p >= Failure_pattern.n obs.pattern
  || (Failure_pattern.is_faulty obs.pattern p || has_decided obs p)
     && correct_decided_from obs (p + 1)

let all_correct_decided obs = correct_decided_from obs 0

let[@tail_mod_cons] rec ids_for allow p = function
  | [] -> []
  | m :: rest ->
      if m.dst = p && (match allow with None -> true | Some f -> f m.src m.dst)
      then m.id :: ids_for allow p rest
      else ids_for allow p rest

let pending_for ?allow obs p = ids_for allow p obs.pending

let[@tail_mod_cons] rec crashed_sends victims obs = function
  | [] -> []
  | m :: rest ->
      if
        (match victims with None -> true | Some f -> f m.src)
        && Failure_pattern.is_crashed obs.pattern m.src ~time:obs.time
      then m.id :: crashed_sends victims obs rest
      else crashed_sends victims obs rest

let droppable ?victims obs = crashed_sends victims obs obs.pending

(* Under the Byzantine model the corrupted set rides the failure
   pattern (corruption subsumes crashing), so the forgeable messages
   are exactly the droppable ones: pending sends of already-corrupted
   processes. *)
let forgeable = droppable

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
    if Array.length !tbl = 0 then tbl := group_table ~n:obs.n groups;
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
    if Array.length !tbl = 0 then tbl := group_table ~n:obs.n groups;
    (* advance past stages whose alive members have all decided *)
    let stage_done gi =
      List.for_all
        (fun p -> has_decided obs p || not (List.mem p (alive obs)))
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
      let members = List.filter (fun p -> List.mem p (alive obs)) groups_arr.(gi) in
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
    else if obs.time + 1 < gst then
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

let crash_after_decision ~inner ~victims =
  let next obs =
    match droppable ~victims:(fun src -> List.mem src victims) obs with
    | [] -> inner.next obs
    | ids -> Drop ids
  in
  { describe = inner.describe ^ "+crash-drops"; next }
