module Run = Ksa_sim.Run
module Pid = Ksa_sim.Pid
module Value = Ksa_sim.Value
module Fd_view = Ksa_sim.Fd_view
module Failure_pattern = Ksa_sim.Failure_pattern
module Adversary = Ksa_sim.Adversary
module Replay = Ksa_sim.Replay
module History = Ksa_fd.History
module Partition_fd = Ksa_fd.Partition_fd
module Rng = Ksa_prim.Rng

type solo = { group : Pid.t list; run : Run.t; history : History.t option }

type result = {
  solos : solo list;
  pasted : Run.t;
  pasted_history : History.t option;
  per_group_indistinguishable : bool list;
  distinct_decisions : int;
  definition7 : (unit, string) Stdlib.result option;
  lemma9 : (unit, string) Stdlib.result option;
}

let check_groups groups =
  let all = List.concat groups in
  let n = List.length all in
  if List.sort_uniq compare all <> Pid.universe n then
    invalid_arg "Pasting: groups must partition the process set";
  n

let default_leaders groups =
  List.map (fun g -> List.fold_left min (List.hd g) g) groups

(* Block-contiguous pasting of per-group source runs: group i's steps
   occupy the pasted times (B_i, B_i + T_i], so a query at pasted time
   B_i + j reads the source history at its own time j — the
   per-process time reparametrization that makes Lemma 11's history
   surgery operational. *)
let build_pasted_history ~n ~per_pid ~tgst_common ~leaders ~horizon =
  History.make ~n ~horizon (fun ~time ~me ->
      match per_pid.(me) with
      | None -> assert false
      | Some (h, off, len) -> (
          let solo_time = max 1 (min (time - off) len) in
          let solo_view = (h : History.t).History.view ~time:solo_time ~me in
          if time >= tgst_common then
            match Fd_view.quorum solo_view with
            | Some q -> Fd_view.Pair (Fd_view.Quorum q, Fd_view.Leaders leaders)
            | None -> Fd_view.Leaders leaders
          else solo_view))

(* offsets B_i from stream lengths *)
let offsets_of lengths =
  List.rev
    (snd
       (List.fold_left
          (fun (acc, outs) len -> (acc + len, acc :: outs))
          (0, []) lengths))

let paste_runs (type s m)
    (module A : Ksa_sim.Algorithm.S with type state = s and type message = m)
    ~n ~inputs ~sources =
  (* sources: (group, run, history option) list, pasted in order *)
  let module E = Ksa_sim.Engine.Make (A) in
  let lengths = List.map (fun (_, run, _) -> Run.step_count run) sources in
  let offsets = offsets_of lengths in
  let total = List.fold_left ( + ) 0 lengths in
  let tgst_common = total + 1 in
  let horizon = total + 2 in
  let groups = List.map (fun (g, _, _) -> g) sources in
  let leaders = default_leaders groups in
  let per_pid = Array.make n None in
  List.iteri
    (fun i (group, _, history) ->
      let off = List.nth offsets i and len = List.nth lengths i in
      List.iter
        (fun p ->
          per_pid.(p) <-
            Option.map (fun h -> (h, off, len)) history)
        group)
    sources;
  let uses_fd = A.uses_fd in
  let pasted_history =
    if uses_fd then
      Some (build_pasted_history ~n ~per_pid ~tgst_common ~leaders ~horizon)
    else None
  in
  let streams =
    List.map
      (fun (group, run, _) ->
        Replay.project ~keep:(fun p -> List.mem p group) run)
      sources
  in
  let pasted_pattern = Failure_pattern.none ~n in
  let pasted =
    E.run ~max_steps:(total + 16)
      ?fd:(Option.map History.oracle pasted_history)
      ~n ~inputs ~pattern:pasted_pattern
      (Replay.sequential streams)
  in
  (pasted, pasted_history, tgst_common, leaders)

let solo_of (type s m)
    (module A : Ksa_sim.Algorithm.S with type state = s and type message = m)
    ~n ~inputs ~groups ~stab ~tgst ~max_steps ~adversary group =
  let module E = Ksa_sim.Engine.Make (A) in
  let dead = List.filter (fun p -> not (List.mem p group)) (Pid.universe n) in
  let pattern = Failure_pattern.initial_dead ~n ~dead in
  let leaders = default_leaders groups in
  let history =
    if A.uses_fd then
      Some
        (Partition_fd.gen
           { Partition_fd.groups; leaders; tgst; stab }
           ~pattern ~horizon:(max stab tgst + 2))
    else None
  in
  let fd = Option.map History.oracle history in
  let run = E.run ~max_steps ?fd ~n ~inputs ~pattern (adversary ()) in
  { group; run; history }

let lemma12 ?inputs ?(stab = 1) ?(tgst = 1) ?(max_steps = 200_000)
    (module A : Ksa_sim.Algorithm.S) ~groups =
  let n = check_groups groups in
  let k = List.length groups in
  let inputs = Option.value inputs ~default:(Value.distinct_inputs n) in
  let solos =
    List.map
      (solo_of (module A) ~n ~inputs ~groups ~stab ~tgst ~max_steps
         ~adversary:Adversary.round_robin)
      groups
  in
  match
    List.find_opt (fun s -> s.run.Run.status <> Run.All_correct_decided) solos
  with
  | Some s ->
      Error
        (Format.asprintf
           "solo run of group {%a} did not reach decision-completeness (%a)"
           (Format.pp_print_list ~pp_sep:Format.pp_print_space Pid.pp)
           s.group Run.pp_summary s.run)
  | None ->
      let sources = List.map (fun s -> (s.group, s.run, s.history)) solos in
      let pasted, pasted_history, tgst_common, leaders =
        paste_runs (module A) ~n ~inputs ~sources
      in
      let per_group_indistinguishable =
        List.map (fun s -> Indist.for_all s.run pasted s.group) solos
      in
      let pasted_pattern = Failure_pattern.none ~n in
      let definition7 =
        Option.map
          (fun h ->
            Partition_fd.validate_partition_property
              { Partition_fd.groups; leaders; tgst = tgst_common; stab }
              ~pattern:pasted_pattern h)
          pasted_history
      in
      let lemma9 =
        Option.map
          (fun h -> Partition_fd.lemma9_check ~k ~pattern:pasted_pattern h)
          pasted_history
      in
      Ok
        {
          solos;
          pasted;
          pasted_history;
          per_group_indistinguishable;
          distinct_decisions = Run.distinct_decisions pasted;
          definition7;
          lemma9;
        }

type exchange = {
  beta : result;
  alpha : Run.t;
  beta' : Run.t;
  dbar_matches_alpha : bool;
  d_matches_beta : bool;
  all_decided : bool;
}

let lemma11 ?inputs ?(stab = 1) ?(tgst = 1) ?(max_steps = 200_000)
    ?(alpha_seed = 4711) (module A : Ksa_sim.Algorithm.S) ~groups =
  let n = check_groups groups in
  let inputs = Option.value inputs ~default:(Value.distinct_inputs n) in
  match lemma12 ~inputs ~stab ~tgst ~max_steps (module A) ~groups with
  | Error e -> Error e
  | Ok beta -> (
      (* α: a *different* run of the restricted system ⟨D̄⟩ — same
         confinement (everyone outside D̄ initially dead), but a fair
         schedule instead of round-robin *)
      let dbar = List.nth groups (List.length groups - 1) in
      let alpha_solo =
        solo_of (module A) ~n ~inputs ~groups ~stab ~tgst ~max_steps
          ~adversary:(fun () ->
            Adversary.fair ~rng:(Rng.create ~seed:alpha_seed))
          dbar
      in
      if alpha_solo.run.Run.status <> Run.All_correct_decided then
        Error "alpha run did not reach decision-completeness"
      else
        let d_solos =
          Ksa_prim.Listx.take (List.length groups - 1) beta.solos
        in
        let sources =
          List.map (fun s -> (s.group, s.run, s.history)) d_solos
          @ [ (dbar, alpha_solo.run, alpha_solo.history) ]
        in
        let beta', _, _, _ = paste_runs (module A) ~n ~inputs ~sources in
        let dbar_matches_alpha = Indist.for_all alpha_solo.run beta' dbar in
        let d_matches_beta =
          List.for_all
            (fun s -> Indist.for_all s.run beta' s.group)
            d_solos
        in
        match beta'.Run.status with
        | Run.All_correct_decided | Run.Halted_by_adversary ->
            Ok
              {
                beta;
                alpha = alpha_solo.run;
                beta';
                dbar_matches_alpha;
                d_matches_beta;
                all_decided = Ksa_sim.Kset_spec.termination beta' = None;
              }
        | Run.Hit_step_budget | Run.No_enabled_process ->
            Error "beta' replay did not complete")
