(* The unified trace layer.

   Unit tests of the four-case Definition 2 semantics over hand-built
   traces, plus the cross-substrate theorem the layer exists for: the
   same algorithm run lock-step in the asynchronous engine and under a
   full (complete-HO) assignment in the Heard-Of engine produces
   literally identical interned traces — same init ids, same state-id
   rows, same decision marks — because both substrates intern into the
   one shared registry. *)

module Sim = Ksa_sim
module Trace = Sim.Trace

let distinct = Sim.Value.distinct_inputs

(* ---------- Definition 2 semantics over hand-built traces ---------- *)

let mk ~init rows =
  Trace.make ~init_ids:(Array.of_list init)
    ~steps:
      (Array.of_list
         (List.map
            (fun row ->
              List.map
                (fun (state_id, decision) -> { Trace.state_id; decision })
                row)
            rows))

let test_both_decided () =
  let a = mk ~init:[ 7 ] [ [ (1, None); (2, Some 0); (3, None) ] ] in
  let b = mk ~init:[ 7 ] [ [ (1, None); (2, Some 0) ] ] in
  (* equal prefixes up to and including the deciding step; the tail
     beyond the decision is irrelevant *)
  Alcotest.(check bool) "same deciding prefix" true
    (Trace.indistinguishable_for a b 0);
  let c = mk ~init:[ 7 ] [ [ (1, None); (9, Some 0) ] ] in
  Alcotest.(check bool) "different deciding state" false
    (Trace.indistinguishable_for a c 0);
  let d = mk ~init:[ 7 ] [ [ (1, None); (2, None); (3, Some 0) ] ] in
  (* both decided but at different step counts: distinguishable even
     though the state sequences agree on the common prefix *)
  Alcotest.(check bool) "different deciding step" false
    (Trace.indistinguishable_for a d 0)

let test_one_decided () =
  let dec = mk ~init:[ 7 ] [ [ (1, None); (2, Some 0) ] ] in
  let longer = mk ~init:[ 7 ] [ [ (1, None); (2, None); (5, None) ] ] in
  (* the decided prefix must be a prefix of the undecided trace *)
  Alcotest.(check bool) "decided vs longer undecided" true
    (Trace.indistinguishable_for dec longer 0);
  Alcotest.(check bool) "symmetric" true
    (Trace.indistinguishable_for longer dec 0);
  let shorter = mk ~init:[ 7 ] [ [ (1, None) ] ] in
  (* the undecided trace is too short to contain the deciding prefix *)
  Alcotest.(check bool) "decided vs shorter undecided" false
    (Trace.indistinguishable_for dec shorter 0)

let test_neither_decided () =
  let a = mk ~init:[ 7 ] [ [ (1, None); (2, None) ] ] in
  let b = mk ~init:[ 7 ] [ [ (1, None); (2, None); (3, None) ] ] in
  Alcotest.(check bool) "agree up to min length" true
    (Trace.indistinguishable_for a b 0);
  let c = mk ~init:[ 7 ] [ [ (1, None); (9, None); (3, None) ] ] in
  Alcotest.(check bool) "diverge within min length" false
    (Trace.indistinguishable_for a c 0)

let test_init_states_compared () =
  let a = mk ~init:[ 7 ] [ [ (1, None) ] ] in
  let b = mk ~init:[ 8 ] [ [ (1, None) ] ] in
  Alcotest.(check bool) "different initial states" false
    (Trace.indistinguishable_for a b 0)

let test_states_until_decision () =
  let t = mk ~init:[ 7 ] [ [ (1, None); (2, Some 0); (3, None) ] ] in
  Alcotest.(check (list int)) "cut at decision" [ 7; 1; 2 ]
    (Trace.states_until_decision t 0);
  let u = mk ~init:[ 7 ] [ [ (1, None); (2, None) ] ] in
  Alcotest.(check (list int)) "whole row when undecided" [ 7; 1; 2 ]
    (Trace.states_until_decision u 0)

(* ---------- cross-substrate lock-step equality ---------- *)

(* A deterministic R-round min-flooding agreement protocol, written
   once against shared state/message types and wrapped for both
   substrates.  Round 1 is a content-free Hello round (its messages
   are ignored), so that the asynchronous rendering — where the first
   step of a process has nothing to deliver — traverses exactly the
   HO state sequence. *)

let rounds_total = 3

type fl_state = { n : int; est : int; round : int }
type fl_msg = Hello | Est of int

let fl_init ~n ~input = { n; est = input; round = 0 }

let fl_payload st ~round = if round = 1 then Hello else Est st.est

let fl_transition st ~round ~received =
  let est =
    if round = 1 then st.est
    else
      List.fold_left
        (fun acc (_, m) -> match m with Est e -> min acc e | Hello -> acc)
        st.est received
  in
  let st' = { st with est; round } in
  let dec = if round = rounds_total then Some est else None in
  (st', dec)

module Ho_flood : Ksa_ho.Ho_algorithm.S
  with type state = fl_state and type message = fl_msg = struct
  type state = fl_state
  type message = fl_msg

  let name = "ho-min-flood"
  let init ~n ~me:_ ~input = fl_init ~n ~input
  let send st ~round = fl_payload st ~round
  let transition = fl_transition
  let pp_state ppf st = Format.fprintf ppf "est=%d@r%d" st.est st.round
  let pp_message ppf = function
    | Hello -> Format.pp_print_string ppf "hello"
    | Est e -> Format.fprintf ppf "est(%d)" e
end

module Async_flood : Sim.Algorithm.S
  with type state = fl_state and type message = fl_msg = struct
  type state = fl_state
  type message = fl_msg

  let name = "async-min-flood"
  let uses_fd = false
  let init ~n ~me:_ ~input = fl_init ~n ~input

  let step st ~received ~fd:_ =
    let round = st.round + 1 in
    let st', dec = fl_transition st ~round ~received in
    (* the round-(r+1) broadcast is computed from the post-round state,
       exactly as the HO engine computes round-(r+1) messages from the
       state after round r *)
    let sends =
      if round < rounds_total then
        List.init st.n (fun q -> (q, fl_payload st' ~round:(round + 1)))
      else []
    in
    (st', sends, dec)

  let canon (st : state) = st
  let canon_message (m : message) = m
  let forge_pool ~n:_ ~values:_ = []
  let pp_state ppf st = Format.fprintf ppf "est=%d@r%d" st.est st.round
  let pp_message ppf = function
    | Hello -> Format.pp_print_string ppf "hello"
    | Est e -> Format.fprintf ppf "est(%d)" e
end

(* Round-synchronous schedule for the asynchronous engine: in block r
   (steps (r−1)·n+1 … r·n) each process takes one step in pid order,
   delivering exactly the messages sent in earlier blocks — i.e. its
   round-r messages.  Ascending message-id order coincides with
   ascending sender order, matching the HO engine's sender-ordered
   delivery. *)
let lockstep ~n ~rounds =
  {
    Sim.Adversary.describe = "lockstep round-synchronous";
    next =
      (fun obs ->
        let time = Sim.Adversary.time obs in
        if time >= n * rounds then Sim.Adversary.Halt
        else
          let pid = time mod n in
          let block_start = time / n * n in
          let deliver =
            Sim.Adversary.pending_for_sent obs pid ~keep:(fun _ sent_at ->
                sent_at <= block_start)
          in
          Sim.Adversary.Step { pid; deliver });
  }

let test_cross_substrate_traces () =
  let n = 4 in
  let inputs = distinct n in
  let module HE = Ksa_ho.Engine.Make (Ho_flood) in
  let module AE = Sim.Engine.Make (Async_flood) in
  let ho =
    HE.run ~n ~inputs ~assignment:(Ksa_ho.Assignment.complete ~n)
      ~rounds:rounds_total ()
  in
  let async =
    AE.run ~n ~inputs
      ~pattern:(Sim.Failure_pattern.none ~n)
      (lockstep ~n ~rounds:rounds_total)
  in
  Alcotest.(check bool) "async run decision-complete" true
    (Sim.Run.all_correct_decided async);
  Alcotest.(check bool) "ho outcome decision-complete" true
    (HE.all_decided ho);
  (* the min of all inputs wins everywhere, on both substrates *)
  let lo = Array.fold_left min max_int inputs in
  Alcotest.(check (list int)) "same decisions" [ lo ] (HE.decided_values ho);
  Alcotest.(check (list int)) "async agrees" [ lo ]
    (Sim.Run.decided_values async);
  (* the payoff: literally the same trace object, interned ids and
     all, out of two different execution substrates *)
  Alcotest.(check bool) "identical interned traces" true
    (Trace.equal ho.HE.trace async.Sim.Run.trace);
  Alcotest.(check bool) "indistinguishable for every process" true
    (List.for_all
       (Trace.indistinguishable_for ho.HE.trace async.Sim.Run.trace)
       (List.init n Fun.id))

let test_cross_substrate_divergence_detected () =
  (* sanity check that the equality above is not vacuous: a partitioned
     HO assignment diverges from the complete one, and the traces must
     differ for processes outside the largest group *)
  let n = 4 in
  let inputs = distinct n in
  let module HE = Ksa_ho.Engine.Make (Ho_flood) in
  let full =
    HE.run ~n ~inputs ~assignment:(Ksa_ho.Assignment.complete ~n)
      ~rounds:rounds_total ()
  in
  let split =
    HE.run ~n ~inputs
      ~assignment:
        (Ksa_ho.Assignment.partitioned ~n ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] ())
      ~rounds:rounds_total ()
  in
  Alcotest.(check bool) "partitioned trace differs" false
    (Trace.equal full.HE.trace split.HE.trace);
  Alcotest.(check bool) "distinguishable for p3" false
    (Sim.Trace.indistinguishable_for full.HE.trace split.HE.trace 3)

(* ---------- Definition 2 property suite over random traces ---------- *)

(* A single-process trace described by plain data, so that an
   independent oracle for Definition 2 can be computed from the
   description without going through the library.  [dec] is the index
   of the deciding step, if any (at most one decision per row, which
   is all the engines ever produce). *)
type raw = { init : int; ids : int list; dec : int option }

let take n xs = List.filteri (fun i _ -> i < n) xs

let raw_to_trace r =
  mk ~init:[ r.init ]
    [ List.mapi (fun i id -> (id, if r.dec = Some i then Some 0 else None)) r.ids ]

let truncate_raw r m =
  {
    r with
    ids = take m r.ids;
    dec = (match r.dec with Some i when i < m -> Some i | _ -> None);
  }

(* the four cases of Definition 2, written directly over the decided
   state prefixes — an independent formulation the library must agree
   with on every generated pair *)
let ref_indistinguishable a b =
  let states r =
    let cut = match r.dec with Some i -> i + 1 | None -> List.length r.ids in
    r.init :: take cut r.ids
  in
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && is_prefix xs ys
  in
  let sa = states a and sb = states b in
  match (a.dec <> None, b.dec <> None) with
  | true, true -> sa = sb
  | true, false -> is_prefix sa sb
  | false, true -> is_prefix sb sa
  | false, false ->
      let m = min (List.length sa) (List.length sb) in
      take m sa = take m sb

let pp_raw r =
  Printf.sprintf "{init=%d; ids=[%s]; dec=%s}" r.init
    (String.concat ";" (List.map string_of_int r.ids))
    (match r.dec with None -> "-" | Some i -> string_of_int i)

let gen_raw =
  QCheck.Gen.(
    int_bound 3 >>= fun init ->
    list_size (int_bound 6) (int_bound 3) >>= fun ids ->
    (match ids with
    | [] -> return None
    | _ -> opt (int_bound (List.length ids - 1)))
    >>= fun dec -> return { init; ids; dec })

let arb_raw = QCheck.make ~print:pp_raw gen_raw

(* pairs that share structure often enough to exercise the [true]
   branches of all four cases, not just the easy mismatches *)
let gen_raw_pair =
  QCheck.Gen.(
    gen_raw >>= fun a ->
    oneof
      [
        return (a, a);
        (int_bound (List.length a.ids) >>= fun m -> return (a, truncate_raw a m));
        ( gen_raw >>= fun b ->
          return (a, { b with init = a.init; ids = take (List.length b.ids) (a.ids @ b.ids) }) );
        (gen_raw >>= fun b -> return (a, b));
      ])

let arb_raw_pair =
  QCheck.make
    ~print:(fun (a, b) -> pp_raw a ^ " vs " ^ pp_raw b)
    gen_raw_pair

let prop_indist_reflexive =
  QCheck.Test.make ~name:"indistinguishable_for is reflexive" ~count:200
    arb_raw (fun r ->
      let t = raw_to_trace r in
      Trace.indistinguishable_for t t 0)

let prop_indist_symmetric =
  QCheck.Test.make ~name:"indistinguishable_for is symmetric" ~count:500
    arb_raw_pair (fun (a, b) ->
      let ta = raw_to_trace a and tb = raw_to_trace b in
      Trace.indistinguishable_for ta tb 0 = Trace.indistinguishable_for tb ta 0)

let prop_indist_matches_oracle =
  QCheck.Test.make
    ~name:"indistinguishable_for matches the Definition 2 oracle" ~count:500
    arb_raw_pair (fun (a, b) ->
      Trace.indistinguishable_for (raw_to_trace a) (raw_to_trace b) 0
      = ref_indistinguishable a b)

let prop_indist_prefix_closure =
  (* truncating an UNDECIDED process's row never distinguishes (the
     runs agree up to the shorter prefix); once the row contains the
     deciding step, truncating strictly below it always does — the
     quantitative content of the one-decided case *)
  QCheck.Test.make ~name:"prefix truncation: closed iff decision survives"
    ~count:500
    (QCheck.make
       ~print:(fun (r, m) -> Printf.sprintf "%s cut at %d" (pp_raw r) m)
       QCheck.Gen.(
         gen_raw >>= fun r ->
         int_bound (List.length r.ids) >>= fun m -> return (r, m)))
    (fun (r, m) ->
      let expected =
        match r.dec with None -> true | Some i -> m >= i + 1
      in
      Trace.indistinguishable_for (raw_to_trace r)
        (raw_to_trace (truncate_raw r m))
        0
      = expected)

let suites =
  [
    Test_util.qsuite "trace.properties"
      [
        prop_indist_reflexive;
        prop_indist_symmetric;
        prop_indist_matches_oracle;
        prop_indist_prefix_closure;
      ];
    ( "trace",
      [
        Alcotest.test_case "both decided" `Quick test_both_decided;
        Alcotest.test_case "one decided" `Quick test_one_decided;
        Alcotest.test_case "neither decided" `Quick test_neither_decided;
        Alcotest.test_case "initial states compared" `Quick
          test_init_states_compared;
        Alcotest.test_case "states until decision" `Quick
          test_states_until_decision;
        Alcotest.test_case "cross-substrate lock-step equality" `Quick
          test_cross_substrate_traces;
        Alcotest.test_case "cross-substrate divergence detected" `Quick
          test_cross_substrate_divergence_detected;
      ] );
  ]
