module Pid = Ksa_sim.Pid
module Value = Ksa_sim.Value
module Adversary = Ksa_sim.Adversary
module Failure_pattern = Ksa_sim.Failure_pattern
module Run = Ksa_sim.Run
module Listx = Ksa_prim.Listx

type verdict = { set : Pid.t list; independent : bool; steps : int }

(* Adversary: processes in S receive only from S until all of S have
   decided (or crashed); everyone else receives freely.  Scheduling is
   round-robin so the run stays fair. *)
let confining ~set =
  let cursor = ref (-1) in
  let next (obs : Adversary.obs) =
    let s_done =
      List.for_all
        (fun p ->
          Adversary.has_decided obs p
          || Failure_pattern.is_crashed (Adversary.pattern obs) p
               ~time:(Adversary.time obs))
        set
    in
    if s_done && Adversary.all_correct_decided obs then Adversary.Halt
    else
      let allow src dst =
        s_done || (not (List.mem dst set)) || List.mem src set
      in
      match Adversary.alive obs with
      | [] -> Adversary.Halt
      | candidates ->
          let after = List.filter (fun p -> p > !cursor) candidates in
          let pid = match after with p :: _ -> p | [] -> List.hd candidates in
          cursor := pid;
          Adversary.Step { pid; deliver = Adversary.pending_for ~allow obs pid }
  in
  { Adversary.describe = "confine-to-S"; next }

let check_set ?fd ?pattern ?inputs ?(max_steps = 100_000)
    (module A : Ksa_sim.Algorithm.S) ~n ~set =
  let module E = Ksa_sim.Engine.Make (A) in
  let inputs = Option.value inputs ~default:(Value.distinct_inputs n) in
  let pattern = Option.value pattern ~default:(Failure_pattern.none ~n) in
  let run = E.run ~max_steps ?fd ~n ~inputs ~pattern (confining ~set) in
  let independent =
    List.for_all
      (fun p ->
        Run.decision_of run p <> None || Failure_pattern.is_faulty pattern p)
      set
  in
  { set; independent; steps = Run.step_count run }

(* like [confining], but the restriction only starts after a free
   prefix: "eventually only receive from S" *)
let confining_after ~set ~prefix =
  let cursor = ref (-1) in
  let next (obs : Adversary.obs) =
    let s_done =
      List.for_all
        (fun p ->
          Adversary.has_decided obs p
          || Failure_pattern.is_crashed (Adversary.pattern obs) p
               ~time:(Adversary.time obs))
        set
    in
    if s_done && Adversary.all_correct_decided obs then Adversary.Halt
    else
      let in_prefix = Adversary.time obs < prefix in
      let allow src dst =
        in_prefix || s_done || (not (List.mem dst set)) || List.mem src set
      in
      match Adversary.alive obs with
      | [] -> Adversary.Halt
      | candidates ->
          let after = List.filter (fun p -> p > !cursor) candidates in
          let pid = match after with p :: _ -> p | [] -> List.hd candidates in
          cursor := pid;
          Adversary.Step { pid; deliver = Adversary.pending_for ~allow obs pid }
  in
  { Adversary.describe = "confine-to-S-eventually"; next }

let check_set_strong ?fd ?pattern ?inputs ?(max_steps = 100_000)
    (module A : Ksa_sim.Algorithm.S) ~n ~set =
  let module E = Ksa_sim.Engine.Make (A) in
  let inputs = Option.value inputs ~default:(Value.distinct_inputs n) in
  let pattern = Option.value pattern ~default:(Failure_pattern.none ~n) in
  let steps = ref 0 in
  let independent =
    List.for_all
      (fun prefix ->
        let run =
          E.run ~max_steps ?fd ~n ~inputs ~pattern
            (confining_after ~set ~prefix)
        in
        steps := !steps + Run.step_count run;
        List.for_all
          (fun p ->
            Run.decision_of run p <> None || Failure_pattern.is_faulty pattern p)
          set)
      [ 0; 3; 10; 25 ]
  in
  { set; independent; steps = !steps }

let check_family ?fd ?pattern ?inputs ?max_steps algo ~n ~family =
  List.map (fun set -> check_set ?fd ?pattern ?inputs ?max_steps algo ~n ~set) family

let satisfies ?fd ?pattern ?max_steps algo ~n ~family =
  List.for_all
    (fun v -> v.independent)
    (check_family ?fd ?pattern ?max_steps algo ~n ~family)

let wait_free_family ~n =
  if n > 16 then invalid_arg "Independence.wait_free_family: n too large";
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun ys -> x :: ys) s
  in
  List.filter (fun s -> s <> []) (subsets (Pid.universe n))

let f_resilient_family ~n ~f =
  List.filter (fun s -> List.length s >= n - f) (wait_free_family ~n)

let obstruction_free_family ~n = List.map (fun p -> [ p ]) (Pid.universe n)

let asymmetric_family ~n ~anchor =
  List.filter (fun s -> List.mem anchor s) (wait_free_family ~n)

let subfamily_monotone t' t =
  List.for_all
    (fun s -> List.exists (fun s' -> List.sort_uniq compare s = List.sort_uniq compare s') t)
    t'
