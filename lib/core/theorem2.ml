module Sim = Ksa_sim
module Run = Sim.Run
module Value = Sim.Value
module Adversary = Sim.Adversary
module Failure_pattern = Sim.Failure_pattern

type result = {
  partition : Partitioning.t;
  lemma3 : bool;
  lemma4 : bool;
  witness : Run.t option;
  witness_admissible : (unit, string) Stdlib.result;
  report : Theorem1.report;
  theorem_applies : bool;
}

let demonstrate ~n ~f ~k =
  match Partitioning.theorem2 ~n ~f ~k with
  | None ->
      Error
        (Printf.sprintf
           "(n=%d, f=%d, k=%d) is outside Theorem 2's region: k(n-f)+1 > n" n f
           k)
  | Some partition ->
      let module A = Ksa_algo.Kset_flp.Make (struct
        let l = max 1 (n - f)
      end) in
      let module E = Sim.Engine.Make (A) in
      let l = n - f in
      let lemma3 =
        List.for_all
          (fun g -> List.length g = l)
          partition.Partitioning.groups
        && List.length partition.Partitioning.dbar >= l + 1
      in
      let all_groups = Partitioning.all_groups partition in
      let lemma4 =
        List.for_all
          (fun set ->
            (Independence.check_set (module A) ~n ~set).Independence.independent)
          all_groups
      in
      (* the synchronous-processes witness: round-robin scheduling with
         cross-group delays *)
      let inputs = Value.distinct_inputs n in
      let witness_run =
        E.run ~n ~inputs
          ~pattern:(Failure_pattern.none ~n)
          (Adversary.partition ~groups:all_groups ())
      in
      let is_witness =
        Theorem1.dec_d witness_run ~partition <> None
        && Theorem1.dec_dbar witness_run ~partition
      in
      let witness = if is_witness then Some witness_run else None in
      let witness_admissible =
        if is_witness then
          Sim.Model_check.check (Sim.Model.theorem2 ~n) witness_run
        else Error "no witness run"
      in
      let report =
        Theorem1.evaluate ~subsystem_crash_budget:1 (module A) ~partition
      in
      let theorem_applies =
        lemma3 && lemma4 && is_witness
        && witness_admissible = Ok ()
        && report.Theorem1.verdict = `Not_a_kset_algorithm
      in
      Ok
        {
          partition;
          lemma3;
          lemma4;
          witness;
          witness_admissible;
          report;
          theorem_applies;
        }
