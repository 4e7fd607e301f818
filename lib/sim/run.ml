type status =
  | All_correct_decided
  | Halted_by_adversary
  | Hit_step_budget
  | No_enabled_process

type t = {
  status : status;
  n : int;
  inputs : Value.t array;
  pattern : Failure_pattern.t;
  events : Event.t list;
  trace : Trace.t;
  decisions : (Pid.t * Value.t * int) list;
  forges : (int * int) list;
      (* (message id, forge-pool index) of every forged delivery,
         chronological; [] under crash runs *)
}

let decision_of t p =
  List.find_map (fun (q, v, _) -> if Pid.equal p q then Some v else None) t.decisions

let decided_values t =
  List.sort_uniq Value.compare (List.map (fun (_, v, _) -> v) t.decisions)

let distinct_decisions t = List.length (decided_values t)

let all_correct_decided t =
  List.for_all
    (fun p -> decision_of t p <> None)
    (Failure_pattern.correct t.pattern)

let decision_time t p =
  List.find_map (fun (q, _, tm) -> if Pid.equal p q then Some tm else None) t.decisions

let last_decision_time t ps =
  let times = List.map (decision_time t) ps in
  if List.exists Option.is_none times then None
  else Some (List.fold_left (fun acc x -> max acc (Option.get x)) 0 times)

let receives_nothing_from_until t p ~from ~until =
  not
    (List.exists
       (fun (ev : Event.t) ->
         Pid.equal ev.pid p && ev.time <= until
         && List.exists (fun (_, src) -> List.mem src from) ev.delivered)
       t.events)

let steps_of t p = List.filter (fun (ev : Event.t) -> Pid.equal ev.pid p) t.events

let step_count t = List.length t.events

let message_count t =
  List.fold_left (fun acc (ev : Event.t) -> acc + List.length ev.sent) 0 t.events

let pp_status ppf = function
  | All_correct_decided -> Format.pp_print_string ppf "all-correct-decided"
  | Halted_by_adversary -> Format.pp_print_string ppf "halted"
  | Hit_step_budget -> Format.pp_print_string ppf "step-budget"
  | No_enabled_process -> Format.pp_print_string ppf "no-enabled-process"

let pp_summary ppf t =
  let pp_dec ppf (p, v, tm) =
    Format.fprintf ppf "%a=%a@%d" Pid.pp p Value.pp v tm
  in
  Format.fprintf ppf "run[%a] n=%d steps=%d msgs=%d decisions={%a} distinct=%d"
    pp_status t.status t.n (step_count t) (message_count t)
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_dec)
    t.decisions (distinct_decisions t)
