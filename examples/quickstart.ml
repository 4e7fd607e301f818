(* Quickstart: run the paper's Section VI protocol (k-set agreement
   with initially dead processes) on a 6-process system with 2 initial
   crashes, under a random fair schedule.

     dune exec examples/quickstart.exe *)

module Sim = Ksa_sim

(* The protocol is parameterized by L; the paper's choice for f
   initial crashes is L = n - f.  Here n = 6, f = 2, so L = 4 and the
   protocol guarantees at most floor(6/4) = 1 distinct decision:
   consensus, despite two processes never taking a step. *)
module K = Ksa_algo.Kset_flp.Make (struct
  let l = Ksa_algo.Kset_flp.kset_l ~n:6 ~f:2
end)

module Engine = Sim.Engine.Make (K)

let () =
  let n = 6 in
  let inputs = Sim.Value.distinct_inputs n in
  let pattern = Sim.Failure_pattern.initial_dead ~n ~dead:[ 1; 4 ] in
  let rng = Ksa_prim.Rng.create ~seed:2026 in
  let run =
    Engine.run ~n ~inputs ~pattern (Sim.Adversary.fair ~rng)
  in
  Format.printf "run summary: %a@." Sim.Run.pp_summary run;
  List.iter
    (fun (p, v, t) ->
      Format.printf "  %a decided %a at step %d@." Sim.Pid.pp p Sim.Value.pp v t)
    run.Sim.Run.decisions;
  (* check the k-set agreement spec mechanically *)
  match Ksa_sim.Kset_spec.check ~k:1 run with
  | None -> Format.printf "spec check: consensus reached despite 2 initial crashes@."
  | Some e -> Format.printf "spec check FAILED: %s@." e
