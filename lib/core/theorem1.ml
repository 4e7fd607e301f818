module Run = Ksa_sim.Run
module Pid = Ksa_sim.Pid
module Value = Ksa_sim.Value
module Adversary = Ksa_sim.Adversary
module Failure_pattern = Ksa_sim.Failure_pattern
module Rng = Ksa_prim.Rng
module Metrics = Ksa_prim.Metrics

let m_screen_runs = Metrics.counter "screen.runs"
let m_screen_witnesses = Metrics.counter "screen.witnesses"
let t_screen = Metrics.timer "screen.portfolio"
let t_exhaustive_c = Metrics.timer "screen.exhaustive_c"

let dec_d run ~(partition : Partitioning.t) =
  let d = Partitioning.d_union partition in
  let proposed_in_d = List.map (fun p -> run.Run.inputs.(p)) d in
  (* candidate values per group: decided by a member, proposed in D *)
  let candidates =
    List.map
      (fun group ->
        List.sort_uniq Value.compare
          (List.filter_map
             (fun p ->
               match Run.decision_of run p with
               | Some v when List.mem v proposed_in_d -> Some v
               | Some _ | None -> None)
             group))
      partition.Partitioning.groups
  in
  (* system of distinct representatives by backtracking *)
  let rec assign chosen = function
    | [] -> Some (List.rev chosen)
    | cands :: rest ->
        List.find_map
          (fun v ->
            if List.mem v chosen then None else assign (v :: chosen) rest)
          cands
  in
  assign [] candidates

let dec_dbar run ~(partition : Partitioning.t) =
  let d = Partitioning.d_union partition in
  let dbar = partition.Partitioning.dbar in
  match Run.last_decision_time run dbar with
  | None -> false
  | Some deadline ->
      List.for_all
        (fun p -> Run.receives_nothing_from_until run p ~from:d ~until:deadline)
        dbar

type witness = { run : Run.t; values : Value.t list; adversary : string }

type portfolio = {
  r_d : Run.t list;
  r_d_dbar : Run.t list;
  witness : witness option;
  runs_tried : int;
}

let screen ?fd ?pattern ?inputs ?(max_steps = 200_000)
    (module A : Ksa_sim.Algorithm.S) ~(partition : Partitioning.t) =
  let module E = Ksa_sim.Engine.Make (A) in
  let n = partition.Partitioning.n in
  let inputs = Option.value inputs ~default:(Value.distinct_inputs n) in
  let pattern = Option.value pattern ~default:(Failure_pattern.none ~n) in
  let groups = partition.Partitioning.groups in
  let dbar = partition.Partitioning.dbar in
  let strategies =
    [
      (fun () -> Adversary.sequential_solo ~groups:(groups @ [ dbar ]));
      (fun () -> Adversary.sequential_solo ~groups:((dbar :: groups) @ []));
      (fun () -> Adversary.partition ~groups:(groups @ [ dbar ]) ());
    ]
  in
  let classify acc mk =
    let adv = mk () in
    let run = E.run ~max_steps ?fd ~n ~inputs ~pattern adv in
    Metrics.incr m_screen_runs;
    let acc = { acc with runs_tried = acc.runs_tried + 1 } in
    match dec_d run ~partition with
    | None -> acc
    | Some values ->
        let acc = { acc with r_d = run :: acc.r_d } in
        if dec_dbar run ~partition then
          {
            acc with
            r_d_dbar = run :: acc.r_d_dbar;
            witness =
              (match acc.witness with
              | Some _ as w -> w
              | None ->
                  Metrics.incr m_screen_witnesses;
                  Some { run; values; adversary = adv.Adversary.describe });
          }
        else acc
  in
  Metrics.time t_screen (fun () ->
      List.fold_left classify
        { r_d = []; r_d_dbar = []; witness = None; runs_tried = 0 }
        strategies)

type c_witness =
  [ `Trapped of Pid.t list * Pid.t list
  | `Subsystem_decides
  | `Inconclusive of string ]

type report = {
  portfolio : portfolio;
  condition_a : bool;
  condition_b : bool;
  condition_c : bool;
  condition_c_witness : c_witness option;
  condition_d : bool;
  verdict : [ `Not_a_kset_algorithm | `No_witness ];
}

(* Condition (C) constructively: condition (C) itself is the border
   arithmetic ("consensus is unsolvable in ⟨D̄⟩"), but with the
   crash-adversarial explorer we can now corroborate it for the
   concrete algorithm — exhaustively search the subsystem in which
   Π∖D̄ is initially dead and the adversary may crash up to the
   subsystem budget more processes, and exhibit a configuration from
   which no continuation decides (the FLP-style trap the arithmetic
   predicts). *)
let validate_condition_c_exhaustive ?inputs
    (module A : Ksa_sim.Algorithm.S) ~(partition : Partitioning.t)
    ~subsystem_crash_budget : c_witness =
  let module Ex = Ksa_sim.Explorer.Make (A) in
  let n = partition.Partitioning.n in
  let d = Partitioning.d_union partition in
  let inputs = Option.value inputs ~default:(Value.distinct_inputs n) in
  match
    Metrics.time t_exhaustive_c (fun () ->
        Ex.explore_with_crashes ~max_configs:500_000 ~n ~inputs ~initially_dead:d
          ~crash_budget:subsystem_crash_budget
          ~check:(fun _ -> None)
          ())
  with
  | Ksa_sim.Explorer.Stuck { crashed; undecided_correct; _ } ->
      `Trapped
        (List.filter (fun p -> not (List.mem p d)) crashed, undecided_correct)
  | Ksa_sim.Explorer.All_paths_decide _ -> `Subsystem_decides
  | Ksa_sim.Explorer.Indeterminate stats ->
      `Inconclusive
        (Printf.sprintf
           "exploration budget exhausted after %d configurations"
           stats.Ksa_sim.Explorer.configs_visited)
  | Ksa_sim.Explorer.Safety_violation { reason; _ } ->
      `Inconclusive ("safety violation during subsystem search: " ^ reason)

(* Condition (D) by construction: run the restricted algorithm A|D̄
   in the restricted system (everyone else initially dead), run the
   full algorithm under the same pattern and schedule, and check the
   two runs are indistinguishable for D̄. *)
let validate_condition_d ?fd ?inputs ~max_steps ~seeds
    (module A : Ksa_sim.Algorithm.S) ~(partition : Partitioning.t) =
  let n = partition.Partitioning.n in
  let dbar = partition.Partitioning.dbar in
  let inputs = Option.value inputs ~default:(Value.distinct_inputs n) in
  let module R =
    Partitioning.Restrict
      (A)
      (struct
        let members = dbar
      end)
  in
  let module Er = Ksa_sim.Engine.Make (R) in
  let module Ef = Ksa_sim.Engine.Make (A) in
  let pattern =
    Failure_pattern.restrict_to (Failure_pattern.none ~n) dbar
  in
  List.for_all
    (fun seed ->
      let restricted =
        Er.run ~max_steps ?fd ~n ~inputs ~pattern
          (Adversary.fair ~rng:(Rng.create ~seed))
      in
      let full =
        Ef.run ~max_steps ?fd ~n ~inputs ~pattern
          (Adversary.fair ~rng:(Rng.create ~seed))
      in
      Indist.for_all restricted full dbar)
    seeds

let evaluate ?fd ?pattern ?inputs ?(max_steps = 200_000)
    ?(seeds = [ 1; 2; 3; 4; 5 ]) ?(exhaustive_c = false) ~subsystem_crash_budget
    (module A : Ksa_sim.Algorithm.S) ~(partition : Partitioning.t) =
  let portfolio =
    screen ?fd ?pattern ?inputs ~max_steps (module A) ~partition
  in
  let condition_a = portfolio.witness <> None in
  let condition_b =
    portfolio.r_d <> []
    && Indist.compatible portfolio.r_d portfolio.r_d_dbar
         ~d:partition.Partitioning.dbar
  in
  let condition_c =
    Border.flp_consensus_impossible
      ~n_subsystem:(List.length partition.Partitioning.dbar)
      ~crashes:subsystem_crash_budget
  in
  let condition_c_witness =
    if not (exhaustive_c && A.uses_fd = false) then None
    else
      Some
        (validate_condition_c_exhaustive ?inputs (module A) ~partition
           ~subsystem_crash_budget)
  in
  let condition_d =
    validate_condition_d ?fd ?inputs ~max_steps ~seeds (module A) ~partition
  in
  let verdict =
    if condition_a && condition_b && condition_c && condition_d then
      `Not_a_kset_algorithm
    else `No_witness
  in
  {
    portfolio;
    condition_a;
    condition_b;
    condition_c;
    condition_c_witness;
    condition_d;
    verdict;
  }

let pp_report ppf r =
  let yn ppf b = Format.pp_print_string ppf (if b then "yes" else "no") in
  Format.fprintf ppf
    "@[<v>(A) R(D) nonempty: %a@ (B) R(D) compatible with R(D,D̄): %a@ (C) \
     consensus impossible in ⟨D̄⟩: %a@ (D) restricted runs embed: %a@ verdict: \
     %s@]"
    yn r.condition_a yn r.condition_b yn r.condition_c yn r.condition_d
    (match r.verdict with
    | `Not_a_kset_algorithm ->
        "NOT a k-set agreement algorithm (Theorem 1 applies)"
    | `No_witness -> "no Theorem-1 witness found");
  match r.condition_c_witness with
  | None -> ()
  | Some `Subsystem_decides ->
      Format.fprintf ppf
        "@.(C, exhaustive) subsystem search: all paths decide — no trap found"
  | Some (`Inconclusive reason) ->
      Format.fprintf ppf "@.(C, exhaustive) inconclusive: %s" reason
  | Some (`Trapped (crashes, undecided)) ->
      Format.fprintf ppf
        "@.(C, exhaustive) ⟨D̄⟩ trap witness: crashes {%s} strand {%s} \
         undecided"
        (String.concat ","
           (List.map (fun p -> Printf.sprintf "p%d" p) crashes))
        (String.concat ","
           (List.map (fun p -> Printf.sprintf "p%d" p) undecided))
