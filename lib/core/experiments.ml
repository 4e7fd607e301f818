module Sim = Ksa_sim
module Fd = Ksa_fd
module FP = Sim.Failure_pattern
module Adv = Sim.Adversary
module Rng = Ksa_prim.Rng
module Listx = Ksa_prim.Listx

type verdict = { id : string; claim : string; holds : bool; detail : string }

let pp_verdict ppf v =
  Format.fprintf ppf "[%s] %s — %s (%s)" v.id
    (if v.holds then "REPRODUCED" else "MISMATCH")
    v.claim v.detail

let hr ppf = Format.fprintf ppf "%s@." (String.make 72 '-')

let header ppf id title =
  hr ppf;
  Format.fprintf ppf "%s: %s@." id title;
  hr ppf

(* ------------------------------------------------------------------ *)
(* E1: Theorem 2                                                       *)
(* ------------------------------------------------------------------ *)

let e1_theorem2 ppf =
  header ppf "E1" "Theorem 2: impossibility with one live crash, k <= (n-1)/(n-f)";
  Format.fprintf ppf "%4s %4s %4s %6s  %6s %6s %8s %11s %9s@." "n" "f" "l"
    "k_max" "lemma3" "lemma4" "witness" "sync-model" "(A)-(D)";
  let failures = ref 0 and rows = ref 0 in
  for n = 3 to 9 do
    for f = 1 to n - 1 do
      let kmax = Border.max_impossible_k ~n ~f in
      if kmax >= 2 then begin
        incr rows;
        match Theorem2.demonstrate ~n ~f ~k:kmax with
        | Error _ -> incr failures
        | Ok r ->
            if not r.Theorem2.theorem_applies then incr failures;
            let distinct =
              match r.Theorem2.witness with
              | Some run -> Sim.Run.distinct_decisions run
              | None -> 0
            in
            Format.fprintf ppf "%4d %4d %4d %6d  %6s %6s %8d %11s %9s@." n f
              (n - f) kmax
              (if r.Theorem2.lemma3 then "ok" else "NO")
              (if r.Theorem2.lemma4 then "ok" else "NO")
              distinct
              (match r.Theorem2.witness_admissible with
              | Ok () -> "admissible"
              | Error _ -> "VIOLATES")
              (if r.Theorem2.report.Theorem1.verdict = `Not_a_kset_algorithm
               then "all hold"
               else "FAIL")
      end
    done
  done;
  let holds = !failures = 0 in
  {
    id = "E1";
    claim = "k-set agreement impossible for k <= (n-1)/(n-f) (Thm 2)";
    holds;
    detail =
      Printf.sprintf
        "%d/%d (n,f) cells: Lemmas 3-4, a synchronous-processes-admissible \
         witness, and conditions (A)-(D) all verified"
        (!rows - !failures) !rows;
  }

(* ------------------------------------------------------------------ *)
(* E2: Theorem 8                                                       *)
(* ------------------------------------------------------------------ *)

let e2_theorem8 ppf =
  header ppf "E2"
    "Theorem 8: with f initial crashes, solvable iff kn > (k+1)f";
  Format.fprintf ppf "%4s %4s %4s %10s %9s   %s@." "n" "f" "k" "max-seen" "bound-ok"
    "border construction";
  let failures = ref 0 and rows = ref 0 in
  for n = 3 to 8 do
    for f = 1 to n - 1 do
      incr rows;
      let k = Border.min_solvable_k ~n ~f in
      let l = n - f in
      let module K = Ksa_algo.Kset_flp.Make (struct
        let l = l
      end) in
      let module E = Sim.Engine.Make (K) in
      (* solvable side: k-set agreement must hold for every schedule tried *)
      let max_seen = ref 0 in
      let ok = ref true in
      for seed = 1 to 8 do
        let rng = Rng.create ~seed:(seed + (n * 100) + f) in
        let dead = Rng.sample rng f (Listx.range 0 n) in
        let pattern = FP.initial_dead ~n ~dead in
        let adv =
          if seed mod 2 = 0 then Adv.fair ~rng
          else Adv.fair_lossy ~rng ~p_defer:0.4
        in
        let run = E.run ~n ~inputs:(Sim.Value.distinct_inputs n) ~pattern adv in
        max_seen := max !max_seen (Sim.Run.distinct_decisions run);
        if Sim.Kset_spec.check ~k run <> None then ok := false
      done;
      (* border side: the largest unsolvable k is kb = k - 1; when it
         sits exactly on kb*n = (kb+1)*f the (kb+1)-way pasting must
         yield kb+1 distinct decisions *)
      let kb = k - 1 in
      let border_note =
        if kb >= 1 && kb * n = (kb + 1) * f then
          match Partitioning.border_case ~n ~k:kb with
          | Some groups -> (
              match Pasting.lemma12 (module K) ~groups with
              | Ok r ->
                  let d = r.Pasting.distinct_decisions in
                  if d <> kb + 1 then ok := false;
                  Printf.sprintf
                    "border k=%d (kn=(k+1)f): pasted run has %d > k decisions"
                    kb d
              | Error _ ->
                  ok := false;
                  "border construction failed")
          | None ->
              ok := false;
              "border partition missing"
        else ""
      in
      if not !ok then incr failures;
      Format.fprintf ppf "%4d %4d %4d %10d %9s   %s@." n f k !max_seen
        (if !ok then "yes" else "NO")
        border_note
    done
  done;
  let holds = !failures = 0 in
  {
    id = "E2";
    claim = "initial-crash solvability iff kn > (k+1)f (Thm 8)";
    holds;
    detail = Printf.sprintf "%d/%d (n,f) cells consistent" (!rows - !failures) !rows;
  }

(* ------------------------------------------------------------------ *)
(* E3: protocol cost                                                   *)
(* ------------------------------------------------------------------ *)

let e3_protocol_cost ppf =
  let sizes = [ 6; 12; 24; 48 ] and seeds = 5 in
  header ppf "E3" "Section VI protocol: cost to global decision (f = n/3)";
  Format.fprintf ppf "%5s %4s %4s %10s %10s %9s %7s@." "n" "f" "L" "avg-steps"
    "avg-msgs" "distinct" "bound";
  let ok = ref true in
  List.iter
    (fun n ->
      let f = n / 3 in
      let l = n - f in
      let module K = Ksa_algo.Kset_flp.Make (struct
        let l = l
      end) in
      let module E = Sim.Engine.Make (K) in
      let bound = Ksa_algo.Kset_flp.decisions_bound ~n ~l in
      let steps = ref 0 and msgs = ref 0 and dmax = ref 0 in
      for seed = 1 to seeds do
        let rng = Rng.create ~seed:(seed * 77) in
        let dead = Rng.sample rng f (Listx.range 0 n) in
        let pattern = FP.initial_dead ~n ~dead in
        let run =
          E.run ~n ~inputs:(Sim.Value.distinct_inputs n) ~pattern (Adv.fair ~rng)
        in
        steps := !steps + Sim.Run.step_count run;
        msgs := !msgs + Sim.Run.message_count run;
        dmax := max !dmax (Sim.Run.distinct_decisions run);
        if Sim.Kset_spec.termination run <> None then ok := false
      done;
      if !dmax > bound then ok := false;
      Format.fprintf ppf "%5d %4d %4d %10d %10d %9d %7d@." n f l (!steps / seeds)
        (!msgs / seeds) !dmax bound)
    sizes;
  {
    id = "E3";
    claim = "protocol terminates with <= floor(n/L) decisions at scale";
    holds = !ok;
    detail = Printf.sprintf "sizes %s" (String.concat "," (List.map string_of_int sizes));
  }

(* ------------------------------------------------------------------ *)
(* E4: graph lemmas                                                    *)
(* ------------------------------------------------------------------ *)

let e4_graph_lemmas ppf =
  let samples = 300 and n = 400 in
  header ppf "E4" "Lemmas 6-7: source components of min-in-degree digraphs";
  Format.fprintf ppf "%6s %6s %9s %12s %12s@." "delta" "n" "samples"
    "lemma6+7 ok" "max #sources";
  let rng = Rng.create ~seed:4242 in
  let all_ok = ref true in
  List.iter
    (fun delta ->
      let ok = ref 0 and max_sources = ref 0 in
      for _ = 1 to samples do
        let g = Ksa_dgraph.Gen.min_in_degree rng ~n ~delta in
        let sources = Ksa_dgraph.Source.source_component_count g in
        max_sources := max !max_sources sources;
        if
          Ksa_dgraph.Source.lemma6_holds g
          && Ksa_dgraph.Source.lemma7_holds g
          && sources <= Ksa_dgraph.Source.max_source_components ~n ~delta
        then incr ok
      done;
      if !ok <> samples then all_ok := false;
      Format.fprintf ppf "%6d %6d %9d %8d/%-5d %12d@." delta n samples !ok
        samples !max_sources)
    [ 1; 2; 3; 5; 8 ];
  {
    id = "E4";
    claim = "every min-in-degree-δ digraph has a source component of size ≥ δ+1";
    holds = !all_ok;
    detail = Printf.sprintf "%d samples per δ at n=%d" samples n;
  }

(* ------------------------------------------------------------------ *)
(* E5: Theorem 10 and Corollary 13                                     *)
(* ------------------------------------------------------------------ *)

let synod_consensus_ok ~n ~dead ~seeds =
  let module E = Sim.Engine.Make (Ksa_algo.Synod.A) in
  let pattern = FP.initial_dead ~n ~dead in
  let leader = List.hd (FP.correct pattern) in
  let ok = ref true in
  for seed = 1 to seeds do
    let rng = Rng.create ~seed:(seed * 31) in
    let sigma = Fd.Sigma.blocks ~k:1 ~pattern ~stab:6 ~horizon:40 () in
    let omega = Fd.Omega.gen ~k:1 ~pattern ~leaders:[ leader ] ~tgst:6 ~horizon:40 () in
    let fd = Fd.History.oracle (Fd.History.combine sigma omega) in
    let run =
      E.run ~max_steps:50_000 ~fd ~n ~inputs:(Sim.Value.distinct_inputs n)
        ~pattern (Adv.fair ~rng)
    in
    if Sim.Kset_spec.check ~k:1 run <> None then ok := false
  done;
  !ok

let e5_theorem10 ppf =
  header ppf "E5"
    "Theorem 10 + Corollary 13: (Sigma_k, Omega_k) solves k-set iff k=1 or k=n-1";
  Format.fprintf ppf "%4s %4s  %-12s %10s %8s %8s %8s@." "n" "k" "regime"
    "decisions" "indist" "def7" "lemma9";
  let failures = ref 0 and rows = ref 0 in
  for n = 4 to 7 do
    (* k = 1: Synod reaches consensus *)
    incr rows;
    let k1_ok =
      synod_consensus_ok ~n ~dead:[] ~seeds:5
      && synod_consensus_ok ~n ~dead:[ n - 1 ] ~seeds:5
    in
    if not k1_ok then incr failures;
    Format.fprintf ppf "%4d %4d  %-12s %10s %8s %8s %8s@." n 1 "solvable"
      (if k1_ok then "1" else "BAD") "-" "-" "-";
    (* 2 <= k <= n-2: the construction forces k decisions *)
    for k = 2 to n - 2 do
      incr rows;
      match Partitioning.theorem10 ~n ~k with
      | None -> incr failures
      | Some partition -> (
          let groups = Partitioning.all_groups partition in
          (* the paper's D-bar first?  order does not matter for the
             construction; use D1..Dk-1, Dbar as given *)
          match Pasting.lemma12 (module Ksa_algo.Synod.A) ~groups with
          | Error _ ->
              incr failures;
              Format.fprintf ppf "%4d %4d  %-12s %10s@." n k "impossible"
                "construction failed"
          | Ok r ->
              let d = r.Pasting.distinct_decisions in
              let ind = List.for_all Fun.id r.Pasting.per_group_indistinguishable in
              let d7 = r.Pasting.definition7 = Some (Ok ()) in
              let l9 = r.Pasting.lemma9 = Some (Ok ()) in
              let ok = d = k && ind && d7 && l9 in
              if not ok then incr failures;
              Format.fprintf ppf "%4d %4d  %-12s %10d %8s %8s %8s@." n k
                "impossible" d
                (if ind then "yes" else "NO")
                (if d7 then "ok" else "NO")
                (if l9 then "ok" else "NO"))
    done
  done;
  {
    id = "E5";
    claim = "(Sigma_k,Omega_k): consensus works at k=1; partition construction \
             forces k decisions for 2<=k<=n-2";
    holds = !failures = 0;
    detail = Printf.sprintf "%d/%d rows consistent" (!rows - !failures) !rows;
  }

(* ------------------------------------------------------------------ *)
(* E6: coverage vs Bouzid-Travers                                      *)
(* ------------------------------------------------------------------ *)

let e6_coverage ppf =
  header ppf "E6"
    "Impossibility coverage: Theorem 10 (2<=k<=n-2) vs Bouzid-Travers (2k^2<=n)";
  Format.fprintf ppf "%6s %14s %14s %8s@." "n" "Thm10 pairs" "BT pairs" "new";
  let t_total = ref 0 and b_total = ref 0 in
  let subsumption_ok = ref true in
  List.iter
    (fun n ->
      let t = ref 0 and b = ref 0 in
      for k = 2 to n - 2 do
        if Border.theorem10_impossible ~n ~k then incr t;
        if Border.bouzid_travers_impossible ~n ~k then begin
          incr b;
          if not (Border.theorem10_impossible ~n ~k) then subsumption_ok := false
        end
      done;
      t_total := !t_total + !t;
      b_total := !b_total + !b;
      Format.fprintf ppf "%6d %14d %14d %8d@." n !t !b (!t - !b))
    [ 4; 8; 16; 32; 48; 64 ];
  Format.fprintf ppf "totals: Theorem 10 covers %d pairs, prior bound %d@."
    !t_total !b_total;
  {
    id = "E6";
    claim = "Theorem 10 strictly extends the 2k^2<=n impossibility of [5]";
    holds = !subsumption_ok && !t_total > !b_total;
    detail = Printf.sprintf "%d vs %d covered (n up to 64)" !t_total !b_total;
  }

(* ------------------------------------------------------------------ *)
(* E7: Lemma 9                                                          *)
(* ------------------------------------------------------------------ *)

let e7_lemma9 ppf =
  let samples = 120 in
  header ppf "E7" "Lemma 9: every (Sigma'_k, Omega'_k) history is a (Sigma_k, Omega_k) history";
  let rng = Rng.create ~seed:777 in
  let pass = ref 0 in
  for _ = 1 to samples do
    let n = 3 + Rng.int rng 5 in
    let k = 2 + Rng.int rng (max 1 (n - 2)) in
    let k = min k (n - 1) in
    (* random partition of 0..n-1 into k nonempty groups *)
    let pids = Rng.shuffle rng (Listx.range 0 n) in
    let cuts = List.sort compare (Rng.sample rng (k - 1) (Listx.range 1 n)) in
    let groups =
      let rec slice start = function
        | [] -> [ Listx.drop start pids ]
        | c :: rest ->
            List.filteri (fun i _ -> i >= start && i < c) pids :: slice c rest
      in
      slice 0 cuts
    in
    let survivor = List.hd pids in
    let dead =
      List.filter (fun p -> p <> survivor && Rng.bool rng) (Listx.range 0 n)
    in
    let pattern = FP.initial_dead ~n ~dead in
    let leaders =
      List.map
        (fun g ->
          match List.filter (fun p -> not (List.mem p dead)) g with
          | p :: _ -> p
          | [] -> List.hd g)
        groups
    in
    let spec = { Fd.Partition_fd.groups; leaders; tgst = 4; stab = 3 } in
    let h = Fd.Partition_fd.gen spec ~pattern ~horizon:9 in
    if
      Fd.Partition_fd.validate_partition_property spec ~pattern h = Ok ()
      && Fd.Partition_fd.lemma9_check ~k ~pattern h = Ok ()
    then incr pass
  done;
  Format.fprintf ppf "%d/%d random (partition, pattern) pairs validated@." !pass
    samples;
  {
    id = "E7";
    claim = "(Sigma_k,Omega_k) is weaker than (Sigma'_k,Omega'_k) (Lemma 9)";
    holds = !pass = samples;
    detail = Printf.sprintf "%d/%d samples" !pass samples;
  }

(* ------------------------------------------------------------------ *)
(* E8: screening                                                        *)
(* ------------------------------------------------------------------ *)

let e8_screening ppf =
  header ppf "E8" "Theorem 1 as a screening tool (Remarks after Theorem 1)";
  let screen name algo partition expected =
    let report = Theorem1.evaluate ~subsystem_crash_budget:1 algo ~partition in
    let got = report.Theorem1.verdict in
    let ok = got = expected in
    Format.fprintf ppf "%-38s %-28s %s@." name
      (match got with
      | `Not_a_kset_algorithm -> "caught (Theorem 1 applies)"
      | `No_witness -> "no witness found")
      (if ok then "" else "UNEXPECTED");
    ok
  in
  let module Naive = Ksa_algo.Naive_min.Make (struct
    let wait_for = 2
  end) in
  let module Sound = Ksa_algo.Kset_flp.Make (struct
    let l = 4
  end) in
  let module Overdriven = Ksa_algo.Kset_flp.Make (struct
    let l = 2
  end) in
  let p5 = Partitioning.make ~n:5 ~groups:[ [ 0; 1 ] ] in
  let p53 = Option.get (Partitioning.theorem2 ~n:5 ~f:3 ~k:2) in
  let ok1 =
    screen "naive-min(wait=2), claim 2-set, n=5" (module Naive) p5
      `Not_a_kset_algorithm
  in
  let ok2 =
    screen "kset-flp(L=4), n=5 f=1 k=2 (solvable)" (module Sound) p5 `No_witness
  in
  let ok3 =
    screen "kset-flp(L=2), n=5 f=3 k=2 (impossible)"
      (module Overdriven)
      p53 `Not_a_kset_algorithm
  in
  let oks = [ ok1; ok2; ok3 ] in
  {
    id = "E8";
    claim = "(dec-D) screening separates flawed candidates from sound ones";
    holds = List.for_all Fun.id oks;
    detail = Printf.sprintf "%d/3 screenings as expected"
        (List.length (List.filter Fun.id oks));
  }

(* ------------------------------------------------------------------ *)
(* E9: T-independence                                                   *)
(* ------------------------------------------------------------------ *)

let e9_independence ppf =
  header ppf "E9" "T-independence taxonomy (Section IV)";
  let check name algo ?fd ?max_steps ~n family expected =
    let got = Independence.satisfies ?fd ?max_steps algo ~n ~family in
    Format.fprintf ppf "%-34s %-22s %-9s %s@." name
      (Printf.sprintf "(%d sets)" (List.length family))
      (if got then "holds" else "fails")
      (if got = expected then "" else "UNEXPECTED");
    got = expected
  in
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = 3
  end) in
  let module Naive = Ksa_algo.Naive_min.Make (struct
    let wait_for = 2
  end) in
  let pattern = FP.none ~n:4 in
  let sigma = Fd.Sigma.blocks ~k:1 ~pattern ~stab:3 ~horizon:30 () in
  let omega = Fd.Omega.gen ~k:1 ~pattern ~leaders:[ 0 ] ~tgst:3 ~horizon:30 () in
  let synod_fd = Fd.History.oracle (Fd.History.combine sigma omega) in
  let ok1 =
    check "trivial / wait-free 2^Pi" (module Ksa_algo.Trivial.A) ~n:4
      (Independence.wait_free_family ~n:4)
      true
  in
  let ok2 =
    check "kset-flp(L=3) / f-resilient f=2" (module K) ~n:5
      (Independence.f_resilient_family ~n:5 ~f:2)
      true
  in
  let ok3 =
    check "kset-flp(L=3) / obstruction-free" (module K) ~n:5
      (Independence.obstruction_free_family ~n:5)
      false
  in
  let ok4 =
    check "naive-min(2) / |S|>=2" (module Naive) ~n:4
      (Independence.f_resilient_family ~n:4 ~f:2)
      true
  in
  let ok5 =
    check "synod+(Sigma,Omega) / proper subsets" (module Ksa_algo.Synod.A)
      ~fd:synod_fd ~max_steps:4_000 ~n:4
      [ [ 0; 1; 2 ] ]
      false
  in
  let ok6 =
    check "synod+(Sigma,Omega) / whole system" (module Ksa_algo.Synod.A)
      ~fd:synod_fd ~n:4
      [ [ 0; 1; 2; 3 ] ]
      true
  in
  let oks = [ ok1; ok2; ok3; ok4; ok5; ok6 ] in
  {
    id = "E9";
    claim = "wait-freedom/f-resilience/obstruction-freedom map to T-independence";
    holds = List.for_all Fun.id oks;
    detail =
      Printf.sprintf "%d/%d classifications as expected"
        (List.length (List.filter Fun.id oks))
        (List.length oks);
  }

(* ------------------------------------------------------------------ *)
(* E10: round models (Discussion)                                      *)
(* ------------------------------------------------------------------ *)

let e10_round_models ppf =
  let seeds = 30 in
  header ppf "E10"
    "Round models (Discussion): the partitioning argument in the Heard-Of model";
  let module MF = Ksa_ho.Min_flood.Make (struct
    let rounds = 4
  end) in
  let module EMF = Ksa_ho.Engine.Make (MF) in
  let module EUV = Ksa_ho.Engine.Make (Ksa_ho.Uniform_voting.A) in
  let ok = ref true in
  Format.fprintf ppf "%-18s %-28s %10s %10s@." "algorithm" "HO predicate"
    "decisions" "expected";
  let row name pred got expected =
    if got <> expected then ok := false;
    Format.fprintf ppf "%-18s %-28s %10d %10d%s@." name pred got expected
      (if got = expected then "" else "  MISMATCH")
  in
  let n = 6 in
  let inputs = Sim.Value.distinct_inputs n in
  let groups = [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ] in
  let part = Ksa_ho.Assignment.partitioned ~n ~groups () in
  let complete = Ksa_ho.Assignment.complete ~n in
  let omf_part = EMF.run ~n ~inputs ~assignment:part ~rounds:4 () in
  row "min-flood" "partitioned (3 groups)" (EMF.distinct_decisions omf_part) 3;
  let omf_c = EMF.run ~n ~inputs ~assignment:complete ~rounds:4 () in
  row "min-flood" "complete" (EMF.distinct_decisions omf_c) 1;
  let ouv_part = EUV.run ~n ~inputs ~assignment:part ~rounds:10 () in
  row "uniform-voting" "partitioned (3 groups)" (EUV.distinct_decisions ouv_part) 3;
  let ouv_c = EUV.run ~n ~inputs ~assignment:complete ~rounds:10 () in
  row "uniform-voting" "complete" (EUV.distinct_decisions ouv_c) 1;
  (* safety of UV over random no-split assignments *)
  let rng = Rng.create ~seed:909 in
  let safe = ref 0 in
  for _ = 1 to seeds do
    let a = Ksa_ho.Assignment.random ~rng ~n ~min_size:((n / 2) + 1) () in
    let o = EUV.run ~n ~inputs ~assignment:a ~rounds:12 () in
    if Sim.Kset_spec.k_agreement ~k:1 o.EUV.decisions = None then incr safe
  done;
  Format.fprintf ppf
    "uniform-voting agreement under %d random no-split assignments: %d/%d@."
    seeds !safe seeds;
  if !safe <> seeds then ok := false;
  (* group solo-indistinguishability in the partitioned run *)
  let solo_of group =
    Ksa_ho.Assignment.make ~n (fun ~round ~me ->
        if List.mem me group then part.Ksa_ho.Assignment.ho ~round ~me else [])
  in
  let indist =
    List.for_all
      (fun group ->
        let solo = EUV.run ~n ~inputs ~assignment:(solo_of group) ~rounds:10 () in
        List.for_all
          (fun p -> EUV.states_equal_until_decision ouv_part solo p)
          group)
      groups
  in
  Format.fprintf ppf "groups state-identical to solo executions: %b@." indist;
  if not indist then ok := false;
  {
    id = "E10";
    claim = "the partitioning reduction transplants to round models (Discussion)";
    holds = !ok;
    detail =
      Printf.sprintf
        "per-group decisions, no-split safety (%d samples), solo \
         indistinguishability"
        seeds;
  }

(* ------------------------------------------------------------------ *)
(* E11: failure detectors from partial synchrony (ablation)            *)
(* ------------------------------------------------------------------ *)

let e11_fd_implementation ppf =
  let seeds = 10 in
  header ppf "E11"
    "FD implementation ablation: window size vs. extracted-history validity";
  let n = 5 in
  let gst = 40 in
  let budget = 160 in
  let module HB = Sim.Engine.Make (Fd.Impl.Heartbeat) in
  Format.fprintf ppf "(n=%d, gst=%d, budget=%d, one initial crash)@." n gst budget;
  Format.fprintf ppf "%8s %14s %14s %16s@." "window" "Σ valid" "Ω valid"
    "synod consensus";
  let final_ok = ref false in
  List.iter
    (fun window ->
      let sigma_ok = ref 0 and omega_ok = ref 0 and synod_ok = ref 0 in
      for seed = 1 to seeds do
        let dead = [ seed mod n ] in
        let pattern = FP.initial_dead ~n ~dead in
        let rng = Rng.create ~seed:(seed * 13) in
        let hb =
          HB.run ~max_steps:budget ~n
            ~inputs:(Sim.Value.distinct_inputs n)
            ~pattern
            (Adv.eventually_lockstep ~rng ~gst ~p_defer:0.6)
        in
        let sigma = Fd.Impl.sigma_of_run hb ~window in
        let omega = Fd.Impl.omega_of_run hb ~window in
        let s = Fd.Sigma.validate ~k:1 ~pattern sigma = Ok () in
        let o = Fd.Omega.validate ~k:1 ~pattern omega = Ok () in
        if s then incr sigma_ok;
        if o then incr omega_ok;
        if s && o then begin
          let module ES = Sim.Engine.Make (Ksa_algo.Synod.A) in
          let oracle = Fd.History.oracle (Fd.History.combine sigma omega) in
          let run =
            ES.run ~max_steps:50_000 ~fd:oracle ~n
              ~inputs:(Sim.Value.distinct_inputs n)
              ~pattern (Adv.fair ~rng)
          in
          if Sim.Kset_spec.check ~k:1 run = None then incr synod_ok
        end
      done;
      if window = 3 * n && !sigma_ok = seeds && !omega_ok = seeds then
        final_ok := !synod_ok = seeds;
      Format.fprintf ppf "%8d %11d/%-3d %11d/%-3d %13d/%-3d@." window !sigma_ok
        seeds !omega_ok seeds !synod_ok seeds)
    [ 2; 3; n; 2 * n; 3 * n ];
  (* online variant: the detector implemented INSIDE the protocol
     (Stack), no oracle and no extraction at all *)
  let module Hb = Ksa_algo.Stack.Heartbeat_fd (struct
    let window = 12
  end) in
  let module Stacked = Ksa_algo.Stack.Make (Hb) (Ksa_algo.Synod.A) in
  let module ES = Sim.Engine.Make (Stacked) in
  let online_ok = ref 0 in
  for seed = 1 to seeds do
    let pattern = FP.initial_dead ~n ~dead:[ seed mod n ] in
    let rng = Rng.create ~seed:(seed * 17) in
    let run =
      ES.run ~max_steps:60_000 ~n
        ~inputs:(Sim.Value.distinct_inputs n)
        ~pattern
        (Adv.eventually_lockstep ~rng ~gst ~p_defer:0.5)
    in
    if Sim.Kset_spec.check ~k:1 run = None then incr online_ok
  done;
  Format.fprintf ppf
    "online (in-protocol detector, no oracle): consensus %d/%d@." !online_ok
    seeds;
  {
    id = "E11";
    claim =
      "partial synchrony implements (Sigma, Omega): extracted histories \
       validate and drive Synod";
    holds = !final_ok && !online_ok = seeds;
    detail =
      Printf.sprintf
        "window 3n fully validates and the in-protocol stack reaches \
         consensus, %d seeds each"
        seeds;
  }

(* ------------------------------------------------------------------ *)
(* E12: the FLP gap between Theorems 2 and 8, exhaustively             *)
(* ------------------------------------------------------------------ *)

let e12_flp_gap ppf =
  header ppf "E12"
    "The Theorem 2 / Theorem 8 gap at (n,f,k)=(3,1,1): initial vs anytime crash";
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = 2
  end) in
  let module Ex = Sim.Explorer.Make (K) in
  let inputs = Sim.Value.distinct_inputs 3 in
  let consensus_check = Sim.Kset_spec.k_agreement ~k:1 in
  (* initial-crash side: every dead-set, whole schedule space *)
  let initial_ok = ref true in
  List.iter
    (fun dead ->
      let pattern = FP.initial_dead ~n:3 ~dead in
      match Ex.explore ~n:3 ~inputs ~pattern ~check:consensus_check () with
      | Sim.Explorer.Safe stats ->
          Format.fprintf ppf
            "initial crash %-8s safe over all %6d schedules (complete: %b)@."
            (if dead = [] then "none" else Printf.sprintf "p%d" (List.hd dead))
            stats.Sim.Explorer.configs_visited
            (not stats.Sim.Explorer.budget_exhausted);
          if stats.Sim.Explorer.budget_exhausted then initial_ok := false
      | Sim.Explorer.Violation v ->
          initial_ok := false;
          Format.fprintf ppf "initial crash: VIOLATION %s@." v.reason)
    [ []; [ 0 ]; [ 1 ]; [ 2 ] ];
  (* anytime-crash side: the explorer must find a trap *)
  let anytime =
    Ex.explore_with_crashes ~n:3 ~inputs ~crash_budget:1 ~check:consensus_check
      ()
  in
  let anytime_ok =
    match anytime with
    | Sim.Explorer.Stuck { crashed; undecided_correct; stats } ->
        Format.fprintf ppf
          "anytime crash: STUCK configuration found — crash of [%s] traps \
           [%s] forever (%d configurations classified)@."
          (String.concat " " (List.map (Printf.sprintf "p%d") crashed))
          (String.concat " " (List.map (Printf.sprintf "p%d") undecided_correct))
          stats.Sim.Explorer.configs_visited;
        not stats.Sim.Explorer.budget_exhausted
    | Sim.Explorer.All_paths_decide _ ->
        Format.fprintf ppf "anytime crash: unexpectedly, all paths decide@.";
        false
    | Sim.Explorer.Indeterminate stats ->
        Format.fprintf ppf
          "anytime crash: INDETERMINATE — budget exhausted after %d \
           configurations@."
          stats.Sim.Explorer.configs_visited;
        false
    | Sim.Explorer.Safety_violation { reason; _ } ->
        Format.fprintf ppf "anytime crash: safety violation %s@." reason;
        false
  in
  let valency =
    Ex.reachable_decision_values ~n:3 ~inputs ~crash_budget:1 ()
  in
  Format.fprintf ppf "initial-configuration valency under 1 crash: {%s}@."
    (String.concat " " (List.map string_of_int valency));
  {
    id = "E12";
    claim =
      "one initial crash: solvable; one anytime crash: a stuck configuration \
       exists (FLP)";
    holds = !initial_ok && anytime_ok && List.length valency >= 2;
    detail = "exhaustive over all schedules and crash placements at n=3";
  }

(* ------------------------------------------------------------------ *)
(* E13: shared memory from message passing (the [9] substrate)         *)
(* ------------------------------------------------------------------ *)

let e13_shared_memory ppf =
  let seeds = 10 in
  header ppf "E13"
    "Shared memory from message passing: ABD with majority (Σ-style) quorums";
  let module Torture = Ksa_sm.Abd.Make (struct
    let script = Ksa_sm.Abd.write_then_read_all
    let write_back = true
  end) in
  let module E = Sim.Engine.Make (Torture) in
  Format.fprintf ppf "%4s %-10s %-8s %10s %10s %9s@." "n" "dead" "sched"
    "ops-done" "atomic" "swmr";
  let all_ok = ref true in
  List.iter
    (fun (n, dead, adv_name) ->
      let atomic_ok = ref 0 and swmr_ok = ref 0 and done_ok = ref 0 in
      for seed = 1 to seeds do
        let pattern = FP.initial_dead ~n ~dead in
        let rng = Rng.create ~seed:(seed * 7) in
        let adv =
          match adv_name with
          | "fair" -> Adv.fair ~rng
          | _ -> Adv.fair_lossy ~rng ~p_defer:0.5
        in
        let run, config =
          E.run_full ~max_steps:80_000 ~n
            ~inputs:(Sim.Value.distinct_inputs n)
            ~pattern adv
        in
        let ops = Torture.ops_of run ~state_of:(E.state_of config) in
        if Sim.Kset_spec.termination run = None then incr done_ok;
        if Ksa_sm.Register.check_atomic ops = Ok () then incr atomic_ok;
        if Ksa_sm.Register.check_write_once_timestamps ops = Ok () then
          incr swmr_ok
      done;
      if !atomic_ok <> seeds || !swmr_ok <> seeds || !done_ok <> seeds then
        all_ok := false;
      Format.fprintf ppf "%4d %-10s %-8s %7d/%-3d %7d/%-3d %6d/%-3d@." n
        (if dead = [] then "none"
         else String.concat "," (List.map string_of_int dead))
        adv_name !done_ok seeds !atomic_ok seeds !swmr_ok seeds)
    [
      (4, [], "fair");
      (4, [ 3 ], "lossy");
      (5, [ 0; 3 ], "fair");
      (5, [ 2 ], "lossy");
      (3, [ 1 ], "fair");
    ];
  {
    id = "E13";
    claim =
      "majority quorums emulate atomic registers over the async substrate \
       (the [9] simulation behind Theorem 10(C))";
    holds = !all_ok;
    detail = Printf.sprintf "%d seeds per (n, crashes, schedule) row" seeds;
  }

(* ------------------------------------------------------------------ *)
(* E14: the (n, k, t, model) solvability border                        *)
(* ------------------------------------------------------------------ *)

let e14_fault_models ppf =
  header ppf "E14"
    "Fault-model border sweep at n=3: kset_flp(l = n - t) under crash / \
     byzantine / mobile budgets";
  let n = 3 in
  let inputs = Sim.Value.distinct_inputs n in
  (* safety verdict of one (k, t, model) cell: explore every schedule,
     crash/corruption/omission placement within budget [t], and ask
     whether some reachable configuration decides more than [k]
     distinct values.  [None] = budget blown (counts as a failed
     experiment, never as evidence either way). *)
  let safe_cell ~k ~t model =
    let module K = Ksa_algo.Kset_flp.Make (struct
      let l = n - t
    end) in
    let module Ex = Sim.Explorer.Make (K) in
    match
      Ex.explore_with_crashes ~model ~max_configs:4_000_000 ~n ~inputs ~crash_budget:t
        ~check:(Sim.Kset_spec.k_agreement ~k) ()
    with
    | Sim.Explorer.Safety_violation _ -> Some false
    | Sim.Explorer.Indeterminate _ -> None
    | Sim.Explorer.All_paths_decide stats | Sim.Explorer.Stuck { stats; _ } ->
        if stats.Sim.Explorer.budget_exhausted then None else Some true
  in
  let complete = ref true in
  let cell ~k ~t model =
    match safe_cell ~k ~t model with
    | Some b -> b
    | None ->
        complete := false;
        false
  in
  Format.fprintf ppf "%4s %4s %4s  %8s %10s %8s   %s@." "n" "k" "t" "crash"
    "byzantine" "mobile" "crash-bound";
  let crash_matches_bound = ref true in
  let byz_within_crash = ref true in
  let strict_separation = ref false in
  List.iter
    (fun k ->
      List.iter
        (fun t ->
          let c = cell ~k ~t Sim.Fault_model.Crash in
          let b = cell ~k ~t (Sim.Fault_model.Byzantine t) in
          let m = cell ~k ~t (Sim.Fault_model.Mobile t) in
          (* the crash row must trace the paper's t < kn/(k+1) border *)
          let bound = Ksa_algo.Kset_flp.solvable ~n ~f:t ~k in
          if c <> bound then crash_matches_bound := false;
          (* corruption subsumes crashing: a Byzantine-safe cell must
             also be crash-safe *)
          if b && not c then byz_within_crash := false;
          if c && not b then strict_separation := true;
          Format.fprintf ppf "%4d %4d %4d  %8s %10s %8s   %s@." n k t
            (if c then "safe" else "UNSAFE")
            (if b then "safe" else "UNSAFE")
            (if m then "safe" else "UNSAFE")
            (if bound then "solvable" else "unsolvable"))
        [ 0; 1; 2 ])
    [ 1; 2; 3 ];
  {
    id = "E14";
    claim =
      "crash safety traces the k*n > (k+1)*t border; Byzantine corruption \
       is never more permissive and is strictly less solvable at some \
       (n, k, t)";
    holds =
      !complete && !crash_matches_bound && !byz_within_crash
      && !strict_separation;
    detail =
      Printf.sprintf
        "exhaustive per cell at n=3, k in {1,2,3}, t in {0,1,2}; separation \
         %sfound"
        (if !strict_separation then "" else "NOT ");
  }

let table =
  [
    (* Theorem 2 / Corollary 5: for every (n, f) with n <= 9 and the
       formula's largest impossible k >= 2, the Theorem-1 screen on the
       paper's own protocol (L = n-f) finds a (dec-D)/(dec-Dbar)
       witness. *)
    ("E1", e1_theorem2);
    (* Theorem 8: on the solvable side (kn > (k+1)f) the protocol
       decides <= k values for every tried schedule and dead-set; at
       the border (kn = (k+1)f) the Lemma-12 pasting produces k+1
       distinct decisions. *)
    ("E2", e2_theorem8);
    (* Section VI protocol cost: steps and messages to global decision
       as n grows (f = n/3), and the distinct decisions against the
       floor(n/L) bound. *)
    ("E3", e3_protocol_cost);
    (* Lemmas 6-7 at scale: random digraphs with minimum in-degree
       delta; source-component counts and sizes against the bounds. *)
    ("E4", e4_graph_lemmas);
    (* Theorem 10 / Corollary 13: for 2 <= k <= n-2 the Lemma-12
       construction drives Synod to k distinct decisions under a
       validated (Sigma_k, Omega_k) history; at k = 1 Synod reaches
       consensus across seeds and crash patterns. *)
    ("E5", e5_theorem10);
    (* Against Bouzid-Travers: the (n, k) pairs covered by 2k^2 <= n
       versus 2 <= k <= n-2, per n. *)
    ("E6", e6_coverage);
    (* Lemma 9 over random partitions and failure patterns: every
       generated (Sigma'_k, Omega'_k) history validates as a
       (Sigma_k, Omega_k) history. *)
    ("E7", e7_lemma9);
    (* The Remarks after Theorem 1: a flawed candidate is caught, a
       sound protocol passes, the paper's protocol outside its regime
       is caught. *)
    ("E8", e8_screening);
    (* Section IV: which classic T-independence families each
       algorithm satisfies, against the paper's classification. *)
    ("E9", e9_independence);
    (* The Discussion's conjecture for round models: in the Heard-Of
       substrate a partitioned assignment drives min-flooding and
       UniformVoting to one decision per group, each group
       state-identical to its solo run; no-split plus eventual
       completeness gives consensus. *)
    ("E10", e10_round_models);
    (* Failure detectors from partial synchrony ({!Ksa_fd.Impl}): per
       sliding-window size, how often the extracted Sigma and Omega
       histories validate (Definitions 4-5) and drive Synod to
       consensus; windows shorter than a post-GST gossip lap (about
       2n) lose liveness. *)
    ("E11", e11_fd_implementation);
    (* The gap between Theorems 2 and 8 at (n, f, k) = (3, 1, 1):
       consensus is safe over the whole schedule space with one initial
       crash, and one anytime crash reaches a configuration from which
       no continuation decides (FLP, condition (C)). *)
    ("E12", e12_flp_gap);
    (* Theorem 10(C)'s appeal to [9]: ABD registers over the simulator
       with majority quorums, under fair and lossy schedules with
       minority crashes; every operation history is atomic. *)
    ("E13", e13_shared_memory);
    (* The (n, k, t, model) border at n = 3, exhaustive per cell: the
       crash column traces k*n > (k+1)*t, Byzantine corruption is
       nowhere more permissive than crashing at equal budget, and
       strictly less somewhere ((3, 1, 1): a forged report breaks the
       agreement a crash can only get stuck on). *)
    ("E14", e14_fault_models);
  ]

let all ?(only = []) ppf =
  let vs =
    List.filter_map
      (fun (id, run) ->
        if only = [] || List.mem id only then Some (run ppf) else None)
      table
  in
  hr ppf;
  Format.fprintf ppf "Summary:@.";
  List.iter (fun v -> Format.fprintf ppf "  %a@." pp_verdict v) vs;
  vs

let exit_code vs = if List.for_all (fun v -> v.holds) vs then 0 else 1
