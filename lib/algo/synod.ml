module Pid = Ksa_sim.Pid
module Value = Ksa_sim.Value
module Fd_view = Ksa_sim.Fd_view

module A = struct
  type message =
    | Prepare of int
    | Promise of int * (int * Value.t) option
    | Accept of int * Value.t
    | Accepted of int
    | Nack of int (* the higher promise that blocked us *)
    | Decide of Value.t

  type phase = Idle | P1 | P2 of Value.t

  type state = {
    n : int;
    me : Pid.t;
    input : Value.t;
    (* acceptor *)
    promised : int;
    accepted : (int * Value.t) option;
    (* proposer *)
    ballot : int;
    phase : phase;
    promises : (int * Value.t) option Pid.Map.t;
    accepts : Pid.Set.t;
    highest_seen : int; (* highest ballot observed anywhere *)
    stalled : int;
    (* learner *)
    decided : Value.t option;
    announced : bool;
  }

  let name = "synod"
  let uses_fd = true

  let init ~n ~me ~input =
    {
      n;
      me;
      input;
      promised = -1;
      accepted = None;
      ballot = -1;
      phase = Idle;
      promises = Pid.Map.empty;
      accepts = Pid.Set.empty;
      highest_seen = -1;
      stalled = 0;
      decided = None;
      announced = false;
    }

  let others st = List.filter (fun q -> not (Pid.equal q st.me)) (List.init st.n Fun.id)
  let broadcast st msg = List.map (fun q -> (q, msg)) (others st)

  (* promises/accepts are balanced maps/sets — already canonical *)
  let canon (st : state) = st
  let canon_message (m : message) = m

  (* ballot-carrying messages are not in scope for the Byzantine
     experiments: unforgeable *)
  let forge_pool ~n:_ ~values:_ = []

  let next_own_ballot st =
    let base = max st.ballot (max st.promised st.highest_seen) in
    (((max base 0 / st.n) + 1) * st.n) + st.me

  let observe_ballot st b = { st with highest_seen = max st.highest_seen b }

  (* ----- acceptor side ----- *)
  let on_prepare st src b =
    let st = observe_ballot st b in
    if b > st.promised then
      ({ st with promised = b }, [ (src, Promise (b, st.accepted)) ])
    else (st, [ (src, Nack st.promised) ])

  let on_accept st src b v =
    let st = observe_ballot st b in
    if b >= st.promised then
      ({ st with promised = b; accepted = Some (b, v) }, [ (src, Accepted b) ])
    else (st, [ (src, Nack st.promised) ])

  (* ----- proposer side ----- *)
  let on_promise st src b acc =
    match st.phase with
    | P1 when b = st.ballot ->
        { st with promises = Pid.Map.add src acc st.promises; stalled = 0 }
    | Idle | P1 | P2 _ -> st

  let on_accepted st src b =
    match st.phase with
    | P2 _ when b = st.ballot ->
        { st with accepts = Pid.Set.add src st.accepts; stalled = 0 }
    | Idle | P1 | P2 _ -> st

  let on_nack st b =
    let st = observe_ballot st b in
    if st.phase <> Idle && b > st.ballot then
      { st with stalled = max st.stalled 1_000_000 }
    else st

  let handle st (src, msg) =
    match msg with
    | Prepare b -> on_prepare st src b
    | Accept (b, v) -> on_accept st src b v
    | Promise (b, acc) -> (on_promise st src b acc, [])
    | Accepted b -> (on_accepted st src b, [])
    | Nack b -> (on_nack st b, [])
    | Decide v ->
        ( (match st.decided with
          | None -> { st with decided = Some v }
          | Some _ -> st),
          [] )

  let covers_quorum quorum set = List.for_all (fun q -> Pid.Set.mem q set) quorum

  let choose_value st =
    let best =
      Pid.Map.fold
        (fun _ acc best ->
          match (acc, best) with
          | Some (b, v), Some (b', _) when b > b' -> Some (b, v)
          | Some (b, v), None -> Some (b, v)
          | _, _ -> best)
        st.promises None
    in
    match best with Some (_, v) -> v | None -> st.input

  let start_ballot st =
    let b = next_own_ballot st in
    let st =
      {
        st with
        ballot = b;
        phase = P1;
        promises = Pid.Map.singleton st.me st.accepted;
        accepts = Pid.Set.empty;
        promised = max st.promised b;
        stalled = 0;
      }
    in
    (st, broadcast st (Prepare b))

  let start_phase2 st quorum_ignored v =
    ignore quorum_ignored;
    let st =
      {
        st with
        phase = P2 v;
        accepts = Pid.Set.singleton st.me;
        promised = max st.promised st.ballot;
        accepted = Some (st.ballot, v);
        stalled = 0;
      }
    in
    (st, broadcast st (Accept (st.ballot, v)))

  let stall_threshold st = (4 * st.n) + 8

  let proposer_tick st quorum am_leader =
    if st.decided <> None then (st, [])
    else
      match st.phase with
      | Idle -> if am_leader then start_ballot st else (st, [])
      | P1 ->
          if covers_quorum quorum (Pid.Map.fold (fun p _ s -> Pid.Set.add p s) st.promises Pid.Set.empty)
          then start_phase2 st quorum (choose_value st)
          else if st.stalled > stall_threshold st then
            if am_leader then start_ballot st else ({ st with phase = Idle }, [])
          else ({ st with stalled = st.stalled + 1 }, [])
      | P2 v ->
          if covers_quorum quorum st.accepts then
            ({ st with decided = Some v }, [])
          else if st.stalled > stall_threshold st then
            if am_leader then start_ballot st else ({ st with phase = Idle }, [])
          else ({ st with stalled = st.stalled + 1 }, [])

  let step st ~received ~fd =
    let quorum, leaders =
      match fd with
      | None -> invalid_arg "synod: failure detector view required"
      | Some view -> (
          match (Fd_view.quorum view, Fd_view.leaders view) with
          | Some q, Some l -> (q, l)
          | _, _ -> invalid_arg "synod: view needs quorum and leader components")
    in
    let st, replies =
      List.fold_left
        (fun (st, acc) incoming ->
          let st, out = handle st incoming in
          (st, acc @ out))
        (st, []) received
    in
    let am_leader = List.mem st.me leaders in
    let st, proposals = proposer_tick st quorum am_leader in
    match st.decided with
    | Some v when not st.announced ->
        ( { st with announced = true },
          replies @ proposals @ broadcast st (Decide v),
          Some v )
    | Some _ | None -> (st, replies @ proposals, None)

  let pp_phase ppf = function
    | Idle -> Format.pp_print_string ppf "idle"
    | P1 -> Format.pp_print_string ppf "p1"
    | P2 v -> Format.fprintf ppf "p2(%a)" Value.pp v

  let pp_state ppf st =
    Format.fprintf ppf "{%a bal=%d %a promised=%d}" Pid.pp st.me st.ballot
      pp_phase st.phase st.promised

  let pp_message ppf = function
    | Prepare b -> Format.fprintf ppf "prepare(%d)" b
    | Promise (b, None) -> Format.fprintf ppf "promise(%d,-)" b
    | Promise (b, Some (b', v)) ->
        Format.fprintf ppf "promise(%d,%d:%a)" b b' Value.pp v
    | Accept (b, v) -> Format.fprintf ppf "accept(%d,%a)" b Value.pp v
    | Accepted b -> Format.fprintf ppf "accepted(%d)" b
    | Nack b -> Format.fprintf ppf "nack(%d)" b
    | Decide v -> Format.fprintf ppf "decide(%a)" Value.pp v
end
