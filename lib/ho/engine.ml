module Pid = Ksa_sim.Pid
module Value = Ksa_sim.Value
module Trace = Ksa_sim.Trace
module Intern = Ksa_prim.Intern
module Metrics = Ksa_prim.Metrics

let m_rounds = Metrics.counter "ho.rounds"
let m_transitions = Metrics.counter "ho.transitions"
let m_decisions = Metrics.counter "ho.decisions"

module Make (A : Ho_algorithm.S) = struct
  type outcome = {
    n : int;
    inputs : Value.t array;
    rounds_run : int;
    decisions : (Pid.t * Value.t * int) list;
    trace : Trace.t;
  }

  exception Double_decision of Pid.t

  let intern st = Intern.id Intern.states st

  let run ?corrupt ~n ~inputs ~assignment ~rounds () =
    if Array.length inputs <> n then invalid_arg "Ho.Engine.run: inputs length";
    let states =
      Array.init n (fun p -> A.init ~n ~me:p ~input:inputs.(p))
    in
    let decisions = Array.make n None in
    let init_ids = Array.map intern states in
    let rev_rows = Array.make n [] in
    for round = 1 to rounds do
      Metrics.incr m_rounds;
      let messages = Array.map (fun st -> A.send st ~round) states in
      let new_states =
        Array.init n (fun p ->
            let received =
              List.map
                (fun q ->
                  (* the Byzantine hook rewrites per (round, src, dst):
                     a corrupted sender may show every receiver a
                     different message (equivocation), but one receiver
                     always sees one message per sender per round *)
                  let m = messages.(q) in
                  match corrupt with
                  | None -> (q, m)
                  | Some f -> (q, f ~round ~src:q ~dst:p m))
                (assignment.Assignment.ho ~round ~me:p)
            in
            let st', dec = A.transition states.(p) ~round ~received in
            Metrics.incr m_transitions;
            (match dec with
            | None -> ()
            | Some v -> (
                match decisions.(p) with
                | None ->
                    decisions.(p) <- Some (v, round);
                    Metrics.incr m_decisions
                | Some (v0, _) ->
                    if not (Value.equal v v0) then raise (Double_decision p)));
            st')
      in
      Array.blit new_states 0 states 0 n;
      Array.iteri
        (fun p st ->
          let decision =
            match decisions.(p) with
            | Some (v, r) when r = round -> Some v
            | Some _ | None -> None
          in
          rev_rows.(p) <- { Trace.state_id = intern st; decision } :: rev_rows.(p))
        states
    done;
    let trace = Trace.make ~init_ids ~steps:(Array.map List.rev rev_rows) in
    let decisions =
      List.filter_map
        (fun p ->
          Option.map (fun (v, r) -> (p, v, r)) decisions.(p))
        (Pid.universe n)
    in
    { n; inputs = Array.copy inputs; rounds_run = rounds; decisions; trace }

  let decided_values o =
    List.sort_uniq Value.compare (List.map (fun (_, v, _) -> v) o.decisions)

  let distinct_decisions o = List.length (decided_values o)

  let all_decided o = List.length o.decisions = o.n

  let states_equal_until_decision oa ob p =
    Trace.indistinguishable_for oa.trace ob.trace p
end
