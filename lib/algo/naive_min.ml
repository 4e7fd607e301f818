module Pid = Ksa_sim.Pid
module Value = Ksa_sim.Value

module Make (P : sig
  val wait_for : int
end) =
struct
  type message = Val of Value.t

  type state = {
    n : int;
    me : Pid.t;
    input : Value.t;
    started : bool;
    seen : Value.t Pid.Map.t; (* own value included *)
    decided : bool;
  }

  let name = Printf.sprintf "naive-min(wait=%d)" P.wait_for
  let uses_fd = false

  let init ~n ~me ~input =
    if P.wait_for < 1 || P.wait_for > n then invalid_arg "Naive_min";
    {
      n;
      me;
      input;
      started = false;
      seen = Pid.Map.singleton me input;
      decided = false;
    }

  let step st ~received ~fd =
    ignore fd;
    let st, sends =
      if st.started then (st, [])
      else
        ( { st with started = true },
          List.filter_map
            (fun q ->
              if Pid.equal q st.me then None else Some (q, Val st.input))
            (List.init st.n Fun.id) )
    in
    let st =
      List.fold_left
        (fun st (src, Val v) -> { st with seen = Pid.Map.add src v st.seen })
        st received
    in
    if (not st.decided) && Pid.Map.cardinal st.seen >= P.wait_for then
      let min_v =
        Pid.Map.fold (fun _ v acc -> min v acc) st.seen max_int
      in
      ({ st with decided = true }, sends, Some min_v)
    else (st, sends, None)

  (* [seen] keeps the tree shape its insertion order built: rebuilt
     from its bindings in key order, equal maps become [=] *)
  let canon st =
    { st with seen = Pid.Map.fold Pid.Map.add st.seen Pid.Map.empty }
  let canon_message (msg : message) = msg

  (* a corrupted sender may claim any candidate value, including the
     out-of-domain one *)
  let forge_pool ~n:_ ~values = List.map (fun v -> Val v) values
  let pp_message ppf (Val v) = Format.fprintf ppf "val(%a)" Value.pp v

  let pp_state ppf st =
    Format.fprintf ppf "{%a seen=%d}" Pid.pp st.me (Pid.Map.cardinal st.seen)
end
