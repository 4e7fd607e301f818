(* Soundness of the reduction layer (Ksa_sim.Canon + the reduced
   explorers).

   Two independent lines of evidence:

   - unit/qcheck properties of the canonicalization itself: the
     witness permutation really maps a configuration onto its
     serialized representative (idempotence), relabelling movable
     processes never changes the orbit key (invariance), relabelling
     live processes does (no over-collapse), and delivery actions
     commute exactly when their steppers differ;

   - differential runs: for every n=3 subject the reduced explorers
     must report the same verdict, the same stuck witness, the same
     terminal decision sets and the same reachable decision values as
     the unreduced ones, sequentially and in parallel.  Only the
     configuration counts may differ — that is what the reduction is
     for. *)

module Sim = Ksa_sim
module Canon = Sim.Canon
module FP = Sim.Failure_pattern

module K2 = Ksa_algo.Kset_flp.Make (struct
  let l = 2
end)

module N2 = Ksa_algo.Naive_min.Make (struct
  let wait_for = 2
end)

let distinct = Sim.Value.distinct_inputs
let no_check _ = None
let reduced_modes = [ Canon.Symmetry ]
let all_modes = Canon.No_reduction :: reduced_modes
let mode_name = Canon.reduction_to_string

(* ---------- rows generator ---------- *)

(* Arbitrary well-formed interned rows: up to eight processes, any
   crashed subset (all-crashed and none-crashed on purpose), small
   fake state/payload ids, negative and repeated decided values, and
   up to 24 pending triples over valid pids.  The canonicalization is
   pure integer arithmetic, so nothing here needs a real engine. *)
let rows_of_n n =
  QCheck.Gen.(
    let all = (1 lsl n) - 1 in
    frequency [ (6, int_range 0 all); (1, return all); (1, return 0) ]
    >>= fun crashed ->
    array_size (return n) (int_range 0 50) >>= fun state_ids ->
    array_size (return n)
      (opt (frequency [ (8, int_range (-3) 3); (1, oneofl [ min_int; max_int ]) ]))
    >>= fun decided ->
    list_size (int_range 0 24)
      (int_range 0 (n - 1) >>= fun src ->
       int_range 0 (n - 1) >>= fun dst ->
       int_range 0 100 >>= fun payload ->
       return (Canon.pack_triple src dst payload))
    >>= fun triples ->
    return { Canon.n; crashed; state_ids; decided; triples = Array.of_list triples })

let rows_gen = QCheck.Gen.(int_range 2 8 >>= rows_of_n)

let pp_rows (r : int Canon.rows) =
  Printf.sprintf "n=%d crashed=%#x states=[%s] decided=[%s] triples=[%s]" r.n
    r.crashed
    (String.concat ";" (Array.to_list (Array.map string_of_int r.state_ids)))
    (String.concat ";"
       (Array.to_list
          (Array.map
             (function None -> "-" | Some v -> string_of_int v)
             r.decided)))
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun t ->
               Printf.sprintf "%d>%d:%d" (Canon.triple_src t)
                 (Canon.triple_dst t) (Canon.triple_payload t))
             r.triples)))

let arb_rows = QCheck.make ~print:pp_rows rows_gen

let orbit_key (rows : int Canon.rows) =
  Canon.serialize ~crashed:rows.crashed (Canon.canonicalize rows)

(* ---------- the production key builder ---------- *)

let key reduction (rows : int Canon.rows) =
  Canon.key ~reduction ~value:Fun.id rows

let prop_key_is_reference =
  QCheck.Test.make ~name:"canon: direct orbit key = serialize . canonicalize"
    ~count:2000 arb_rows (fun rows ->
      List.for_all (fun m -> key m rows = orbit_key rows) reduced_modes)

let prop_exact_key_order_free =
  QCheck.Test.make ~name:"canon: exact key ignores the order of the triples"
    ~count:500 arb_rows (fun rows ->
      let rev = Array.of_list (List.rev (Array.to_list rows.Canon.triples)) in
      key Canon.No_reduction rows
      = key Canon.No_reduction { rows with Canon.triples = rev })

(* ---------- the varint layout, decoded ---------- *)

(* A decoder written against the layout's definition (zigzag, then
   LEB128, low seven-bit group first), independent of both writers. *)
let decode s =
  let rec int_at i shift acc =
    let b = Char.code s.[i] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (i + 1, acc) else int_at (i + 1) (shift + 7) acc
  in
  let rec go i out =
    if i = String.length s then List.rev out
    else
      let i, z = int_at i 0 0 in
      go i (((z lsr 1) lxor -(z land 1)) :: out)
  in
  go 0 []

(* The int sequence each layout denotes, spelled out over the rows:
   triples re-packed as (payload * n + src) * n + dst *)
let reference_ints reduction (r : int Canon.rows) =
  let small t =
    (((Canon.triple_payload t * r.n) + Canon.triple_src t) * r.n)
    + Canon.triple_dst t
  in
  let sorted l = List.sort compare l in
  let with_count l = List.length l :: l in
  let pids = List.init r.n Fun.id in
  let dead p = r.crashed land (1 lsl p) <> 0 in
  match reduction with
  | Canon.No_reduction ->
      let decided =
        List.filter_map
          (fun p -> Option.map (fun v -> (p, v)) r.decided.(p))
          pids
      in
      (r.crashed :: Array.to_list r.state_ids)
      @ (List.length decided :: List.concat_map (fun (p, v) -> [ p; v ]) decided)
      @ with_count (sorted (List.map small (Array.to_list r.triples)))
  | Canon.Symmetry ->
      let c = Canon.canonicalize r in
      [ -1; r.crashed ]
      @ List.map (fun p -> if dead p then -1 else r.state_ids.(p)) pids
      @ (List.length c.fixed_decided
        :: List.concat_map (fun (p, v) -> [ p; v ]) c.fixed_decided)
      @ with_count c.movable_decided
      @ with_count (sorted (List.map small (Array.to_list c.retained)))

let prop_key_decodes =
  QCheck.Test.make ~name:"canon: keys decode to the layout's int sequence"
    ~count:1000 arb_rows (fun rows ->
      List.for_all
        (fun m -> decode (key m rows) = reference_ints m rows)
        all_modes)

(* Rows far larger than the writer's scratch space starts with (300
   triples, payload ids into the thousands), so the scratch array and
   buffer both grow, and the triples take three-byte varints. *)
let test_key_large_rows () =
  let n = 8 in
  let rows =
    {
      Canon.n;
      crashed = 0b1010_0000;
      state_ids = Array.init n (fun p -> 1000 * p);
      decided = Array.init n (fun p -> if p mod 3 = 0 then Some (p - 4) else None);
      triples =
        Array.init 300 (fun j ->
            Canon.pack_triple (j mod n) (j * 7 mod n) (j * 13));
    }
  in
  List.iter
    (fun m ->
      Alcotest.(check (list int))
        ("decodes, " ^ mode_name m)
        (reference_ints m rows)
        (decode (key m rows)))
    all_modes;
  Alcotest.(check string) "orbit key = reference" (orbit_key rows)
    (key Canon.Symmetry rows)

(* Two rows of one n, the second often a near miss of the first (a
   triple or a decision dropped), where a layout without its counts
   would make one key a prefix of the other. *)
let rows_pair_gen =
  QCheck.Gen.(
    int_range 2 8 >>= fun n ->
    rows_of_n n >>= fun a ->
    frequency
      [
        (2, rows_of_n n);
        ( 1,
          int_bound (Array.length a.Canon.triples) >>= fun m ->
          return { a with Canon.triples = Array.sub a.Canon.triples 0 m } );
        ( 1,
          int_bound (n - 1) >>= fun p ->
          let decided = Array.copy a.Canon.decided in
          decided.(p) <- None;
          return { a with Canon.decided } );
      ]
    >>= fun b -> return (a, b))

let is_proper_prefix p s =
  String.length p < String.length s
  && String.sub s 0 (String.length p) = p

let prop_keys_prefix_free =
  QCheck.Test.make ~name:"canon: no key is a proper prefix of another (same n)"
    ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> pp_rows a ^ " / " ^ pp_rows b)
       rows_pair_gen)
    (fun (a, b) ->
      let keys r = List.map (fun m -> key m r) [ Canon.No_reduction; Canon.Symmetry ] in
      List.for_all
        (fun ka ->
          List.for_all
            (fun kb -> not (is_proper_prefix ka kb || is_proper_prefix kb ka))
            (keys b))
        (keys a))

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* Golden bytes.  Checkpoints store dedup keys, so the layouts must
   not drift — not even in step with the reference, which the
   properties above would miss.  Each literal is a zigzag LEB128
   varint sequence: one byte per int below 64 in magnitude, more for
   larger ones (low seven-bit group first, high bit set on every byte
   but the last). *)
let test_exact_key_golden () =
  let rows =
    {
      Canon.n = 3;
      crashed = 0b100;
      state_ids = [| 5; 7; 9 |];
      decided = [| Some 2; None; Some (-1) |];
      triples = [| Canon.pack_triple 1 0 3; Canon.pack_triple 0 2 1 |];
    }
  in
  (* crashed 4; states 5 7 9; 2 decided: (0, 2) (2, -1); 2 triples,
     re-packed as (payload * 3 + src) * 3 + dst and sorted: 0>2:1 is
     11, 1>0:3 is 30.  Zigzag doubles each non-negative int and maps
     -1 to 1. *)
  Alcotest.(check string)
    "exact key bytes"
    (String.concat ""
       [ "08"; "0a"; "0e"; "12"; "04"; "00"; "04"; "04"; "01"; "04"; "16"; "3c" ])
    (hex (key Canon.No_reduction rows))

let test_orbit_key_golden () =
  let rows =
    {
      Canon.n = 5;
      crashed = 0b00111;
      state_ids = [| 10; 11; 12; 13; 14 |];
      decided = [| Some 3; Some 1; Some (-2); None; Some 1 |];
      triples =
        [|
          Canon.pack_triple 4 3 2;
          Canon.pack_triple 0 3 5;
          Canon.pack_triple 1 2 6;
          Canon.pack_triple 3 0 2;
        |];
    }
  in
  (* tag -1; crashed 7; row ids -1 -1 -1 13 14; 2 fixed outputs (p0
     names a live-destination message, p4 is live): (0, 3) (4, 1); 2
     movable values (p1, p2), sorted: -2 1; 2 retained triples
     re-packed as (payload * 5 + src) * 5 + dst and sorted: 4>3:2 is
     73, 0>3:5 is 128 (the two to crashed pids are elided).  73 and
     128 zigzag to 146 and 256, two bytes each. *)
  let expected =
    String.concat ""
      [
        "01"; "0e"; "01"; "01"; "01"; "1a"; "1c"; "04"; "00"; "06"; "08";
        "02"; "04"; "03"; "02"; "04"; "9201"; "8002";
      ]
  in
  List.iter
    (fun m ->
      Alcotest.(check string)
        ("orbit key bytes, " ^ mode_name m)
        expected (hex (key m rows)))
    reduced_modes

(* ---------- the engine's one-pass key ---------- *)

(* Random walks over reachable configurations of n = 3 and n = 4: each
   move crashes one more live process (keeping one alive) or steps a
   live one on a random subset of its buffer.  At every configuration
   on the way, the key the engine writes straight from its inboxes into
   the scratch buffer must equal, byte for byte, {!Canon.key} over rows
   rebuilt from the configuration's public view and
   re-interned, under the walk's crashed mask plus random extra
   bits. *)
module Key_walk (A : Sim.Algorithm.S) = struct
  module E = Sim.Engine.Make (A)
  module Intern = Ksa_prim.Intern

  let rows c ~crashed =
    let n = E.n c in
    {
      Canon.n;
      crashed;
      state_ids =
        Array.init n (fun p -> Intern.id Intern.states (E.state_of c p));
      decided = Array.init n (E.decision_of c);
      triples =
        Array.of_list
          (List.map
             (fun (e : A.message Sim.Envelope.t) ->
               Canon.pack_triple e.src e.dst
                 (Intern.id Intern.payloads e.payload))
             (E.pending c));
    }

  let agrees ~reduction ~crashed c =
    let reference = Canon.key ~reduction ~value:Fun.id (rows c ~crashed) in
    let len = E.write_key ~crashed ~reduction c in
    Bytes.sub_string (Canon.key_buffer ()) 0 len = reference
    && E.key ~crashed ~reduction c = reference
    && decode reference = reference_ints reduction (rows c ~crashed)

  let holds ~n ~reduction (seed, len) =
    let rng = Random.State.make [| seed |] in
    let pick l = List.nth l (Random.State.int rng (List.length l)) in
    let pattern_of mask =
      FP.initial_dead ~n
        ~dead:
          (List.filter
             (fun p -> mask land (1 lsl p) <> 0)
             (List.init n Fun.id))
    in
    let rec go c mask len =
      let crashed = mask lor Random.State.int rng (1 lsl n) in
      agrees ~reduction ~crashed c
      && (len = 0
         ||
         let live =
           List.filter (fun p -> mask land (1 lsl p) = 0) (List.init n Fun.id)
         in
         if List.length live > 1 && Random.State.int rng 6 = 0 then
           go c (mask lor (1 lsl pick live)) (len - 1)
         else
           let pid = pick live in
           let deliver =
             List.filter
               (fun _ -> Random.State.bool rng)
               (List.map fst (E.inbox c pid))
           in
           match
             E.apply ~pattern:(pattern_of mask) c
               (Sim.Adversary.Step { pid; deliver })
           with
           | Some c' -> go c' mask (len - 1)
           | None | (exception E.Double_decision _) -> true)
    in
    go (E.init ~record:false ~reduction ~n ~inputs:(distinct n) ()) 0 len
end

module Key_walk_k2 = Key_walk (K2)
module Key_walk_n2 = Key_walk (N2)

let prop_engine_key_is_canon_key =
  QCheck.Test.make
    ~name:
      "engine: one-pass key (+ extra crashed bits) = Canon.key over rebuilt \
       rows"
    ~count:150
    QCheck.(pair (int_bound 0x3fffffff) (int_range 0 30))
    (fun walk ->
      List.for_all
        (fun n ->
          List.for_all
            (fun reduction ->
              Key_walk_k2.holds ~n ~reduction walk
              && Key_walk_n2.holds ~n ~reduction walk)
            all_modes)
        [ 3; 4 ])

(* The key written into the scratch buffer allocates nothing, in every
   mode, once the buffer has grown to the configuration's size. *)
let test_engine_key_allocates_nothing () =
  let module E = Key_walk_k2.E in
  let n = 3 in
  List.iter
    (fun reduction ->
      let c0 = E.init ~record:false ~reduction ~n ~inputs:(distinct n) () in
      (* a configuration with pending messages, keyed below with pid 2
         crashed *)
      let c =
        List.fold_left
          (fun c pid ->
            match
              E.apply ~pattern:(FP.none ~n) c
                (Sim.Adversary.Step { pid; deliver = [] })
            with
            | Some c' -> c'
            | None -> c)
          c0 [ 0; 1; 2 ]
      in
      Alcotest.(check bool) "messages pending" true (E.pending c <> []);
      Alcotest.(check (float 0.))
        ("write_key words, " ^ mode_name reduction)
        0.
        (Test_util.words_per_loop 1000 (fun () ->
             ignore (E.write_key ~crashed:0b100 ~reduction c : int))))
    all_modes

(* ---------- key-first steps ---------- *)

(* The delivery choices as the explorers offered them before the
   engine wrote them off the inboxes, from [mine], a buffer's (id, src)
   pairs in sending order. *)
let reference_batches policy mine =
  let subsets xs =
    List.fold_left
      (fun acc x -> List.rev_append (List.rev_map (fun s -> x :: s) acc) acc)
      [ [] ] xs
  in
  match (policy : Sim.Engine.delivery_policy) with
  | Empty_or_all -> (
      match mine with [] -> [ [] ] | _ -> [ []; List.map fst mine ])
  | Per_sender ->
      let senders =
        List.fold_left
          (fun seen (_, s) -> if List.mem s seen then seen else seen @ [ s ])
          [] mine
      in
      let bucket s =
        List.filter_map (fun (id, src) -> if src = s then Some id else None) mine
      in
      ([] :: List.map bucket senders)
      @ if List.length senders >= 2 then [ List.map fst mine ] else []
  | All_subsets -> subsets (List.map fst mine)

(* Random walks over reachable configurations of n = 3 and n = 4, as
   in [Key_walk].  At every configuration, for every pid and every
   batch each delivery policy offers, the successor key written
   before the successor is built must equal, byte for byte, the key
   of [apply]'s successor and the key of the committed configuration,
   under the walk's crashed mask plus random extra bits.  Crashed and
   invalid pids and batches naming a message that is not pending, or
   not addressed to the stepper, must raise the same text through
   both paths.  The batches themselves must be the reference choices,
   in the reference order, each written newest first. *)
module Key_first (A : Sim.Algorithm.S) = struct
  module E = Sim.Engine.Make (A)

  let outcome f =
    match f () with
    | v -> Ok v
    | exception E.Invalid_action s -> Error ("invalid: " ^ s)
    | exception E.Double_decision p -> Error (Printf.sprintf "double p%d" p)

  let agrees ~reduction ~pattern ~crashed c pid deliver =
    let built =
      outcome (fun () ->
          match E.apply ~pattern c (Sim.Adversary.Step { pid; deliver }) with
          | Some c' -> E.key ~crashed ~reduction c'
          | None -> "halt")
    in
    let first =
      outcome (fun () ->
          let o = E.step ~pattern c pid deliver in
          let len = E.write_step_key ~crashed ~reduction c pid deliver o in
          let k = Bytes.sub_string (Canon.key_buffer ()) 0 len in
          let committed = E.key ~crashed ~reduction (E.commit c pid deliver o) in
          if committed = k then k else "commit differs")
    in
    built = first

  let batches policy c pid =
    let acc = ref [] in
    E.iter_batches policy c pid (fun b -> acc := b :: !acc);
    List.rev !acc

  let rec strictly_desc = function
    | a :: (b :: _ as tl) -> a > b && strictly_desc tl
    | [] | [ _ ] -> true

  let policies c pid =
    Sim.Engine.[ Per_sender; Empty_or_all ]
    @ if List.length (E.inbox c pid) <= 4 then [ Sim.Engine.All_subsets ] else []

  let holds ~n ~reduction (seed, len) =
    let rng = Random.State.make [| seed |] in
    let pick l = List.nth l (Random.State.int rng (List.length l)) in
    let pattern_of mask =
      FP.initial_dead ~n
        ~dead:
          (List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init n Fun.id))
    in
    let check c mask =
      let pattern = pattern_of mask in
      let crashed = mask lor Random.State.int rng (1 lsl n) in
      List.for_all
        (fun pid ->
          List.for_all
            (fun policy ->
              let bs = batches policy c pid in
              let sorted = List.map (List.sort compare) in
              sorted bs = sorted (reference_batches policy (E.inbox c pid))
              && List.for_all strictly_desc bs
              && List.for_all (agrees ~reduction ~pattern ~crashed c pid) bs)
            (policies c pid)
          (* refusals: a message of another inbox, one never sent *)
          && List.for_all
               (fun (e : A.message Sim.Envelope.t) ->
                 e.dst = pid
                 || agrees ~reduction ~pattern ~crashed c pid [ e.id ])
               (E.pending c)
          && agrees ~reduction ~pattern ~crashed c pid [ 10_000 ])
        (List.init n Fun.id)
      && List.for_all
           (fun pid -> agrees ~reduction ~pattern ~crashed c pid [])
           [ -1; n ]
    in
    let rec go c mask len =
      check c mask
      && (len = 0
         ||
         let live =
           List.filter (fun p -> mask land (1 lsl p) = 0) (List.init n Fun.id)
         in
         if List.length live > 1 && Random.State.int rng 6 = 0 then
           go c (mask lor (1 lsl pick live)) (len - 1)
         else
           let pid = pick live in
           let deliver = pick (batches Sim.Engine.Per_sender c pid) in
           match
             E.apply ~pattern:(pattern_of mask) c
               (Sim.Adversary.Step { pid; deliver })
           with
           | Some c' -> go c' mask (len - 1)
           | None | (exception E.Double_decision _) -> true)
    in
    go (E.init ~record:false ~reduction ~n ~inputs:(distinct n) ()) 0 len
end

module Key_first_k2 = Key_first (K2)
module Key_first_n2 = Key_first (N2)

let prop_key_first_is_build_then_key =
  QCheck.Test.make
    ~name:"engine: key-first step key = key of the applied step" ~count:40
    QCheck.(pair (int_bound 0x3fffffff) (int_range 0 25))
    (fun walk ->
      List.for_all
        (fun n ->
          List.for_all
            (fun reduction ->
              Key_first_k2.holds ~n ~reduction walk
              && Key_first_n2.holds ~n ~reduction walk)
            all_modes)
        [ 3; 4 ])

(* An explorer path replayed in a recording configuration of the same
   reduction.  The explorer side steps key-first with recording off;
   the replay [apply]s the same actions to a recording configuration:
   deliveries of the policies' batches (handed over oldest first, as
   a recorded run lists them), crashes with the crashed sender's
   pending messages dropped, and, under Byzantine, deliveries that
   forge one of a corrupted sender's messages.  After every action
   the replay's key equals the explorer's. *)
module Explorer_path (A : Sim.Algorithm.S) = struct
  module E = Sim.Engine.Make (A)

  let batches policy c pid =
    let acc = ref [] in
    E.iter_batches policy c pid (fun b -> acc := b :: !acc);
    !acc

  let holds ~n ~reduction ~byzantine (seed, len) =
    let rng = Random.State.make [| seed |] in
    let pick l = List.nth l (Random.State.int rng (List.length l)) in
    let pool = List.length (E.forge_pool ~n ~inputs:(distinct n)) in
    let corrupt = Random.State.int rng n in
    let same ~crashed x r =
      E.key ~crashed ~reduction x = E.key ~crashed ~reduction r
    in
    let rec go x r crashes len =
      let pattern = FP.of_crash_times ~n crashes in
      let crashed =
        List.fold_left (fun m (p, _) -> m lor (1 lsl p)) 0 crashes
      in
      let live =
        List.filter
          (fun p -> not (List.mem_assoc p crashes))
          (List.init n Fun.id)
      in
      len = 0 || live = []
      ||
      match Random.State.int rng 8 with
      | 0 when (not byzantine) && List.length live > 1 ->
          let p = pick live in
          let crashes = (p, E.time x) :: crashes in
          let pattern = FP.of_crash_times ~n crashes in
          let ids =
            List.filter_map
              (fun (e : A.message Sim.Envelope.t) ->
                if e.src = p then Some e.id else None)
              (E.pending x)
          in
          let x, r =
            if ids = [] then (x, r)
            else
              let drop c =
                Option.get (E.apply ~pattern c (Sim.Adversary.Drop ids))
              in
              (drop x, drop r)
          in
          same ~crashed:(crashed lor (1 lsl p)) x r && go x r crashes (len - 1)
      | 1 when byzantine && pool > 0 -> (
          match
            List.filter
              (fun (e : A.message Sim.Envelope.t) ->
                e.src = corrupt && List.mem e.dst live)
              (E.pending x)
          with
          | [] -> go x r crashes (len - 1)
          | l -> (
              (* the receiver takes its whole inbox, one message forged *)
              let e = pick l in
              let pid = e.Sim.Envelope.dst in
              let deliver = List.map fst (E.inbox x pid) in
              let forged = [ (e.id, Random.State.int rng pool) ] in
              match
                let o = E.step ~forged ~pattern x pid deliver in
                let k = E.write_step_key ~crashed ~reduction x pid deliver o in
                ( Bytes.sub_string (Canon.key_buffer ()) 0 k,
                  E.commit x pid deliver o )
              with
              | exception E.Double_decision _ -> true
              | key, x ->
                  let r =
                    Option.get
                      (E.apply ~pattern r
                         (Sim.Adversary.Forging_step { pid; deliver; forged }))
                  in
                  key = E.key ~crashed ~reduction r
                  && same ~crashed x r
                  && go x r crashes (len - 1)))
      | _ -> (
          let pid = pick live in
          let policies =
            [ Sim.Engine.Empty_or_all; Sim.Engine.Per_sender ]
            @
            if List.length (E.inbox x pid) <= 4 then [ Sim.Engine.All_subsets ]
            else []
          in
          let deliver = pick (batches (pick policies) x pid) in
          match
            let o = E.step ~pattern x pid deliver in
            let k = E.write_step_key ~crashed ~reduction x pid deliver o in
            ( Bytes.sub_string (Canon.key_buffer ()) 0 k,
              E.commit x pid deliver o )
          with
          | exception E.Double_decision _ -> true
          | key, x ->
              let r =
                Option.get
                  (E.apply ~pattern r
                     (Sim.Adversary.Step { pid; deliver = List.rev deliver }))
              in
              key = E.key ~crashed ~reduction r
              && key = E.key ~crashed ~reduction x
              && E.events x = []
              && List.length (E.events r) = E.time r
              && go x r crashes (len - 1))
    in
    let x = E.init ~record:false ~reduction ~n ~inputs:(distinct n) () in
    let r = E.init ~reduction ~n ~inputs:(distinct n) () in
    same ~crashed:0 x r && go x r [] len
end

module Explorer_path_k2 = Explorer_path (K2)
module Explorer_path_n2 = Explorer_path (N2)

let prop_explorer_path_replays =
  QCheck.Test.make
    ~name:"engine: an explorer path replayed while recording reaches its keys"
    ~count:40
    QCheck.(pair (int_bound 0x3fffffff) (int_range 0 30))
    (fun walk ->
      List.for_all
        (fun n ->
          List.for_all
            (fun reduction ->
              List.for_all
                (fun byzantine ->
                  Explorer_path_k2.holds ~n ~reduction ~byzantine walk
                  && Explorer_path_n2.holds ~n ~reduction ~byzantine walk)
                [ false; true ])
            all_modes)
        [ 3; 4 ])

(* A recorded run and a crash exploration give the same results in a
   freshly spawned domain, whose memo is empty, as in this one after
   they have filled its memo. *)
let test_memo_cold_warm () =
  let module E = Key_first_k2.E in
  let module Ex = Sim.Explorer.Make (K2) in
  let n = 3 in
  let recorded () =
    E.run ~n ~inputs:(distinct n) ~pattern:(FP.none ~n)
      (Sim.Adversary.fair ~rng:(Ksa_prim.Rng.create ~seed:7))
  in
  let explored () =
    match
      Ex.explore_with_crashes ~domains:1 ~n ~inputs:(distinct n)
        ~crash_budget:1 ~check:no_check ()
    with
    | Sim.Explorer.Stuck { crashed; undecided_correct; stats } ->
        (crashed, undecided_correct, stats)
    | _ -> Alcotest.fail "expected a Stuck verdict"
  in
  let cold_run = Domain.join (Domain.spawn recorded) in
  let cold_explore = Domain.join (Domain.spawn explored) in
  ignore (recorded ());
  ignore (explored ());
  Alcotest.(check bool)
    "recorded run: cold = warm" true
    (cold_run = recorded ());
  Alcotest.(check bool)
    "crash exploration: cold = warm" true
    (cold_explore = explored ())

(* One sender's two messages, of payloads whose intern ids and
   structural order disagree, delivered together: an exploring and a
   recording configuration both fold them in payload order, never in
   id order.  Their memo keys are the same ints, so whichever steps
   first, the other hits its entry and must receive the same
   sequence. *)
module Order = struct
  type state = { me : int; sent : bool; heard : string list }
  type message = string

  let name = "order"
  let uses_fd = false
  let hi = "zz-order-test"
  let lo = "aa-order-test"
  let init ~n:_ ~me ~input:_ = { me; sent = false; heard = [] }

  let step s ~received ~fd:_ =
    let sends = if s.sent || s.me <> 1 then [] else [ (0, hi); (0, lo) ] in
    ( { s with sent = true; heard = s.heard @ List.map snd received },
      sends,
      None )

  let canon s = s
  let canon_message m = m
  let forge_pool ~n:_ ~values:_ = []
  let pp_state ppf s = Format.pp_print_string ppf (String.concat "," s.heard)
  let pp_message = Format.pp_print_string
end

let test_memo_one_fold () =
  let module Intern = Ksa_prim.Intern in
  ignore (Intern.id Intern.payloads Order.hi : int);
  ignore (Intern.id Intern.payloads Order.lo : int);
  Alcotest.(check bool)
    "intern order disagrees with structural order" true
    (Intern.id Intern.payloads Order.hi < Intern.id Intern.payloads Order.lo
    && compare Order.hi Order.lo > 0);
  let none = FP.none ~n:2 in
  let heard ~explore_first =
    (* a functor instance of its own: a cold memo *)
    let module E = Sim.Engine.Make (Order) in
    let step c pid deliver =
      Option.get (E.apply ~pattern:none c (Sim.Adversary.Step { pid; deliver }))
    in
    let heard c0 = (E.state_of (step (step c0 1 []) 0 [ 1; 0 ]) 0).Order.heard in
    let explore () = heard (E.init ~record:false ~n:2 ~inputs:[| 0; 0 |] ()) in
    let recorded () = heard (E.init ~n:2 ~inputs:[| 0; 0 |] ()) in
    if explore_first then
      let e = explore () in
      (e, recorded ())
    else
      let r = recorded () in
      (explore (), r)
  in
  List.iter
    (fun explore_first ->
      let what =
        if explore_first then "exploration first" else "recorded first"
      in
      let e, r = heard ~explore_first in
      Alcotest.(check (list string))
        (what ^ ": exploration, payload order") [ Order.lo; Order.hi ] e;
      Alcotest.(check (list string))
        (what ^ ": recorded, payload order") [ Order.lo; Order.hi ] r)
    [ true; false ]

(* At one domain with a warm memo, a key-first step whose successor is
   a dedup hit, and an idle-step probe, allocate nothing. *)
let test_key_first_allocates_nothing () =
  let module E = Key_first_k2.E in
  let n = 3 and none = FP.none ~n:3 in
  List.iter
    (fun reduction ->
      let c =
        List.fold_left
          (fun c pid ->
            Option.get
              (E.apply ~pattern:none c
                 (Sim.Adversary.Step { pid; deliver = [] })))
          (E.init ~record:false ~reduction ~n ~inputs:(distinct n) ())
          [ 0; 1; 2 ]
      in
      let batch =
        List.nth (Key_first_k2.batches Sim.Engine.Empty_or_all c 0) 1
      in
      Alcotest.(check bool)
        "a batch of two or more" true
        (List.length batch >= 2);
      let seen = Ksa_prim.Shardset.create ~name:"test.key_first" () in
      let ticket () = 0 in
      let probe () =
        let o = E.step ~pattern:none c 0 batch in
        let len = E.write_step_key ~crashed:0b100 ~reduction c 0 batch o in
        Ksa_prim.Shardset.admit_bytes seen (Canon.key_buffer ()) len ~ticket
      in
      Alcotest.(check int) "the first probe admits" (lnot 0) (probe ());
      Alcotest.(check int) "then it is a dedup hit" 0 (probe ());
      Alcotest.(check (float 0.))
        ("key-first dedup hit words, " ^ mode_name reduction)
        0.
        (Test_util.words_per_loop 1000 (fun () -> ignore (probe () : int))))
    all_modes;
  let module T = Sim.Engine.Make (Ksa_algo.Trivial.A) in
  let step c =
    Option.get
      (T.apply ~pattern:none c (Sim.Adversary.Step { pid = 0; deliver = [] }))
  in
  let c1 = step (T.init ~record:false ~n ~inputs:(distinct n) ()) in
  ignore (step c1);
  Alcotest.(check bool) "settled" true (T.idle_step ~pattern:none c1 0);
  Alcotest.(check (float 0.))
    "idle_step words" 0.
    (Test_util.words_per_loop 1000 (fun () ->
         ignore (T.idle_step ~pattern:none c1 0 : bool)))

(* The crash-free explorer's probe of a successor: the step, its key
   from the parent and a lock-free probe of the table.  At one domain
   with a warm memo a dedup hit allocates nothing under none and sym. *)
let test_free_probe_allocates_nothing () =
  let module E = Key_first_k2.E in
  let n = 3 and none = FP.none ~n:3 in
  List.iter
    (fun reduction ->
      let c =
        List.fold_left
          (fun c pid ->
            Option.get
              (E.apply ~pattern:none c
                 (Sim.Adversary.Step { pid; deliver = [] })))
          (E.init ~record:false ~reduction ~n ~inputs:(distinct n) ())
          [ 0; 1; 2 ]
      in
      let batch =
        List.nth (Key_first_k2.batches Sim.Engine.Empty_or_all c 0) 1
      in
      let seen = Ksa_prim.Shardset.create ~name:"test.free_probe" () in
      let write () =
        let o = E.step ~pattern:none c 0 batch in
        E.write_step_key ~crashed:0 ~reduction c 0 batch o
      in
      let len = write () in
      ignore
        (Ksa_prim.Shardset.admit_bytes seen (Canon.key_buffer ()) len
           ~ticket:(fun () -> 0)
          : int);
      let probe () =
        let len = write () in
        Ksa_prim.Shardset.mem_bytes seen (Canon.key_buffer ()) len
      in
      Alcotest.(check bool) "the probe hits" true (probe ());
      Alcotest.(check (float 0.))
        ("crash-free dedup hit words, " ^ mode_name reduction)
        0.
        (Test_util.words_per_loop 1000 (fun () -> ignore (probe () : bool))))
    [ Canon.No_reduction; Canon.Symmetry ]

(* Words allocated per admitted configuration by whole campaigns at
   one domain, measured on a second run so that the transition memo
   and the interner are warm: what is left is what an expansion
   allocates.  Each ceiling is the figure measured when expansion
   stopped building a callback per node and a decisions list per
   node (57.30 and 117.34 words), times 1.05; before, the two read
   82.96 and 143.73. *)
let test_campaign_words_per_admitted () =
  let module Ex = Sim.Explorer.Make (K2) in
  let check = Sim.Kset_spec.k_agreement ~k:2 in
  let words_per_admitted run =
    ignore (run () : int);
    let w0 = Gc.minor_words () in
    let admitted = run () in
    (Gc.minor_words () -. w0) /. float admitted
  in
  let crash () =
    match
      Ex.explore_with_crashes ~n:3 ~inputs:(distinct 3) ~crash_budget:1
        ~check ()
    with
    | Sim.Explorer.All_paths_decide s
    | Sim.Explorer.Stuck { stats = s; _ }
    | Sim.Explorer.Indeterminate s ->
        s.Sim.Explorer.configs_visited
    | Sim.Explorer.Safety_violation _ -> Alcotest.fail "crash cell: violation"
  in
  let free () =
    match
      Ex.explore ~max_configs:20_000 ~n:4 ~inputs:(distinct 4)
        ~pattern:(FP.none ~n:4) ~check ()
    with
    | Sim.Explorer.Safe s when s.Sim.Explorer.budget_exhausted ->
        s.configs_visited
    | _ -> Alcotest.fail "crash-free campaign: expected a truncated Safe"
  in
  List.iter
    (fun (what, run, ceiling) ->
      let w = words_per_admitted run in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f words per admitted <= %.1f" what w ceiling)
        true (w <= ceiling))
    [
      ("crash n=3 t=1 per-sender", crash, 60.2);
      ("crash-free n=4 per-sender, 20k budget", free, 123.2);
    ]

(* ---------- canonicalization properties ---------- *)

let prop_witness_idempotent =
  QCheck.Test.make ~name:"canon: witness perm reaches a fixpoint" ~count:500
    arb_rows (fun rows ->
      let c = Canon.canonicalize rows in
      let rows' = Canon.permute_rows c.Canon.perm rows in
      let c' = Canon.canonicalize rows' in
      (* the permuted configuration IS the representative: same key,
         and re-canonicalizing it moves nothing *)
      orbit_key rows = orbit_key rows'
      && Canon.canonical_equal c c'
      && Array.to_list c'.Canon.perm = List.init rows.Canon.n Fun.id)

(* a random permutation of the movable set, identity elsewhere *)
let movable_shuffle_gen (rows : int Canon.rows) =
  QCheck.Gen.(
    let movable = Canon.movable rows in
    shuffle_l movable >>= fun shuffled ->
    let perm = Array.init rows.Canon.n Fun.id in
    List.iter2 (fun p q -> perm.(p) <- q) movable shuffled;
    return perm)

let prop_orbit_invariance =
  QCheck.Test.make ~name:"canon: movable relabelling preserves the key"
    ~count:500
    (QCheck.make
       ~print:(fun (r, p) ->
         pp_rows r ^ " perm=["
         ^ String.concat ";" (Array.to_list (Array.map string_of_int p))
         ^ "]")
       QCheck.Gen.(rows_gen >>= fun r -> pair (return r) (movable_shuffle_gen r)))
    (fun (rows, perm) ->
      orbit_key rows = orbit_key (Canon.permute_rows perm rows))

let test_live_swap_separates () =
  (* relabelling LIVE processes must not collapse: the orbit relation
     is restricted to movable (crashed, unobservable) pids *)
  let rows =
    {
      Canon.n = 3;
      crashed = 0;
      state_ids = [| 10; 20; 30 |];
      decided = [| None; None; None |];
      triples = [||];
    }
  in
  let swap01 = [| 1; 0; 2 |] in
  Alcotest.(check bool)
    "live swap changes the key" false
    (orbit_key rows = orbit_key (Canon.permute_rows swap01 rows))

let test_crashed_state_elided () =
  (* two configurations differing only in a movable process's frozen
     local state (and its undeliverable inbox) share an orbit key *)
  let base state0 inbound0 =
    {
      Canon.n = 3;
      crashed = 1;
      (* p0 crashed *)
      state_ids = [| state0; 20; 30 |];
      decided = [| None; Some 1; None |];
      triples =
        [| Canon.pack_triple 1 2 7; Canon.pack_triple 1 0 inbound0 |];
    }
  in
  Alcotest.(check bool)
    "frozen state + dead-destination message elided" true
    (orbit_key (base 10 40) = orbit_key (base 11 41));
  (* but the live-destination traffic is retained *)
  let live state0 payload =
    {
      (base state0 40) with
      Canon.triples = [| Canon.pack_triple 1 2 payload |];
    }
  in
  Alcotest.(check bool)
    "live-destination payload retained" false
    (orbit_key (live 10 7) = orbit_key (live 10 8))

let test_movable_decided_multiset () =
  (* crashed-after-deciding processes are interchangeable: only the
     multiset of their outputs survives *)
  let rows d0 d1 =
    {
      Canon.n = 4;
      crashed = 0b0011;
      state_ids = [| 1; 2; 30; 40 |];
      decided = [| d0; d1; None; None |];
      triples = [||];
    }
  in
  Alcotest.(check bool)
    "decided multiset, not assignment" true
    (orbit_key (rows (Some 5) (Some 7)) = orbit_key (rows (Some 7) (Some 5)));
  Alcotest.(check bool)
    "different multisets separate" false
    (orbit_key (rows (Some 5) (Some 5)) = orbit_key (rows (Some 7) (Some 5)))

(* ---------- engine-level commutation ---------- *)

module E2 = Sim.Engine.Make (K2)

let estep c pid deliver =
  match
    E2.apply ~pattern:(FP.none ~n:3) c (Sim.Adversary.Step { pid; deliver })
  with
  | Some c' -> c'
  | None -> Alcotest.fail "step refused"

let test_independent_steps_commute () =
  (* two delivery actions of distinct steppers, neither sending to the
     other, reach the same configuration key in either order —
     including when one of them delivers a batch *)
  let init () =
    E2.init ~record:false ~reduction:Canon.Symmetry ~n:3 ~inputs:(distinct 3) ()
  in
  let c = estep (estep (init ()) 0 []) 1 [] in
  let inbox2 = List.map fst (E2.inbox c 2) in
  Alcotest.(check bool) "inbox non-empty" true (inbox2 <> []);
  List.iter
    (fun reduction ->
      let ab = estep (estep c 0 []) 2 inbox2 in
      let ba = estep (estep c 2 inbox2) 0 [] in
      Alcotest.(check bool)
        (mode_name reduction ^ ": step/deliver commute")
        true
        (String.equal (E2.key ~reduction ab) (E2.key ~reduction ba)))
    all_modes;
  (* same stepper, different batches: dependent (keys differ) *)
  let all = estep c 2 inbox2 in
  let none = estep c 2 [] in
  Alcotest.(check bool)
    "same-pid actions are dependent" false
    (String.equal (E2.key all) (E2.key none))

(* ---------- idle-step elision ---------- *)

(* Random explorer walks over n=3 configurations: each move either
   crashes one more live process (keeping one alive) or steps a live
   process on a random subset of its buffer.  At every configuration
   on the way, every pid — crashed ones included — is first stepped
   with the empty delivery (warming the memo exactly as an explorer's
   first visit does), then asked [idle_step]; a [true] must come with
   a step that succeeds and keeps the key under the walk's crashed
   mask. *)
module Idle_walk (A : Sim.Algorithm.S) = struct
  module E = Sim.Engine.Make (A)

  let n = 3

  let pattern_of mask =
    FP.initial_dead ~n
      ~dead:(List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init n Fun.id))

  let idle_keeps_key ~reduction c mask =
    let pattern = pattern_of mask in
    let key c = E.key ~crashed:mask ~reduction c in
    List.for_all
      (fun pid ->
        let stepped =
          try E.apply ~pattern c (Sim.Adversary.Step { pid; deliver = [] })
          with E.Invalid_action _ | E.Double_decision _ -> None
        in
        (not (E.idle_step ~pattern c pid))
        ||
        match stepped with
        | Some c' -> String.equal (key c') (key c)
        | None -> false)
      (List.init n Fun.id)

  let holds ~reduction (seed, len) =
    let rng = Random.State.make [| seed |] in
    let pick l = List.nth l (Random.State.int rng (List.length l)) in
    let rec go c mask len =
      idle_keeps_key ~reduction c mask
      && (len = 0
         ||
         let live =
           List.filter (fun p -> mask land (1 lsl p) = 0) (List.init n Fun.id)
         in
         if List.length live > 1 && Random.State.int rng 6 = 0 then
           go c (mask lor (1 lsl pick live)) (len - 1)
         else
           let pid = pick live in
           let deliver =
             List.filter
               (fun _ -> Random.State.bool rng)
               (List.map fst (E.inbox c pid))
           in
           match
             E.apply ~pattern:(pattern_of mask) c
               (Sim.Adversary.Step { pid; deliver })
           with
           | Some c' -> go c' mask (len - 1)
           | None | (exception E.Double_decision _) -> true)
    in
    go (E.init ~record:false ~reduction ~n ~inputs:(distinct n) ()) 0 len
end

(* The real algorithms never change state on an empty delivery
   without also sending or deciding.  [Tick] does each on its own, so
   the walk meets every way a memo entry can fail to prove idleness:
   two silent state changes, then pid 0 sends on every empty step
   without changing state, while the others decide once and go idle;
   a delivery resets the count, again silently. *)
module Tick = struct
  type state = { me : Sim.Pid.t; n : int; count : int }
  type message = int

  let name = "tick"
  let uses_fd = false
  let init ~n ~me ~input:_ = { me; n; count = 0 }

  let step st ~received ~fd:_ =
    match received with
    | [] when st.count < 2 -> ({ st with count = st.count + 1 }, [], None)
    | [] when st.me = 0 -> (st, [ (1 mod st.n, st.count) ], None)
    | [] -> (st, [], Some st.me)
    | _ :: _ -> ({ st with count = 0 }, [], None)

  let canon st = st
  let canon_message (m : message) = m
  let forge_pool ~n:_ ~values:_ = []

  let pp_state ppf st =
    Format.fprintf ppf "{p%d count=%d}" st.me st.count

  let pp_message = Format.pp_print_int
end

module Walk_k2 = Idle_walk (K2)
module Walk_n2 = Idle_walk (N2)
module Walk_trivial = Idle_walk (Ksa_algo.Trivial.A)
module Walk_tick = Idle_walk (Tick)

let prop_idle_step_keeps_key =
  QCheck.Test.make ~name:"idle_step: a memo-proven idle step keeps the key"
    ~count:200
    QCheck.(pair (int_bound 0x3fffffff) (int_range 0 40))
    (fun walk ->
      List.for_all
        (fun reduction ->
          Walk_k2.holds ~reduction walk
          && Walk_n2.holds ~reduction walk
          && Walk_trivial.holds ~reduction walk
          && Walk_tick.holds ~reduction walk)
        all_modes)

(* A functor instance of its own, so its memo holds only what this
   test puts there *)
module E_idle = Sim.Engine.Make (Ksa_algo.Trivial.A)

let test_idle_step_cases () =
  let none = FP.none ~n:3 in
  let step c pid =
    match
      E_idle.apply ~pattern:none c (Sim.Adversary.Step { pid; deliver = [] })
    with
    | Some c' -> c'
    | None -> Alcotest.fail "step refused"
  in
  let c0 = E_idle.init ~record:false ~n:3 ~inputs:(distinct 3) () in
  (* trivial decides on its first step and is settled afterwards *)
  let c1 = step c0 0 in
  Alcotest.(check bool)
    "deciding step is not idle" false
    (E_idle.idle_step ~pattern:none c0 0);
  Alcotest.(check bool)
    "memo miss: settled state never stepped" false
    (E_idle.idle_step ~pattern:none c1 0);
  ignore (step c1 0);
  Alcotest.(check bool)
    "memo hit: settled state is idle" true
    (E_idle.idle_step ~pattern:none c1 0);
  Alcotest.(check bool)
    "crashed pid" false
    (E_idle.idle_step ~pattern:(FP.initial_dead ~n:3 ~dead:[ 0 ]) c1 0);
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Printf.sprintf "invalid pid %d" pid)
        false
        (E_idle.idle_step ~pattern:none c1 pid))
    [ -1; 3 ]

(* An algorithm bug on purpose: its second step re-decides a different
   value without changing state or sending *)
module Redecide = struct
  type state = int
  type message = |

  let name = "redecide"
  let uses_fd = false
  let init ~n:_ ~me:_ ~input:_ = 0
  let step s ~received:_ ~fd:_ = (1, [], Some s)
  let canon s = s
  let canon_message (m : message) = m
  let forge_pool ~n:_ ~values:_ = []
  let pp_state = Format.pp_print_int
  let pp_message _ (m : message) = match m with _ -> .
end

module E_redecide = Sim.Engine.Make (Redecide)

let test_idle_step_double_decision () =
  let none = FP.none ~n:1 in
  let step c =
    E_redecide.apply ~pattern:none c (Sim.Adversary.Step { pid = 0; deliver = [] })
  in
  let c0 = E_redecide.init ~record:false ~n:1 ~inputs:[| 0 |] () in
  let c1 = Option.get (step c0) in
  (* the failing step still leaves its memo entry: same state, no
     sends, a conflicting decision *)
  Alcotest.check_raises "second step re-decides" (E_redecide.Double_decision 0)
    (fun () -> ignore (step c1));
  Alcotest.(check bool)
    "conflicting decision is not idle" false
    (E_redecide.idle_step ~pattern:none c1 0)

(* ---------- differential runs: reduced vs unreduced ---------- *)

let subjects =
  [
    ("kset_flp(l=2)", (module K2 : Sim.Algorithm.S));
    ("trivial", (module Ksa_algo.Trivial.A : Sim.Algorithm.S));
    ("naive_min(wait=2)", (module N2 : Sim.Algorithm.S));
  ]

let crash_verdict_token (o : Sim.Explorer.resilient_outcome) =
  match o with
  | Sim.Explorer.All_paths_decide _ -> "all-paths-decide"
  | Sim.Explorer.Safety_violation { reason; _ } -> "violation:" ^ reason
  | Sim.Explorer.Stuck { crashed; undecided_correct; _ } ->
      Printf.sprintf "stuck:{%s}/{%s}"
        (String.concat "," (List.map string_of_int crashed))
        (String.concat "," (List.map string_of_int undecided_correct))
  | Sim.Explorer.Indeterminate _ -> "indeterminate"

let test_differential_crash_verdicts () =
  List.iter
    (fun (name, (module A : Sim.Algorithm.S)) ->
      let module Ex = Sim.Explorer.Make (A) in
      let run ?reduction ?domains () =
        let o =
          match domains with
          | None ->
              Ex.explore_with_crashes ?reduction ~n:3 ~inputs:(distinct 3)
                ~crash_budget:1 ~check:no_check ()
          | Some d ->
              Ex.explore_with_crashes_par ?reduction ~domains:d ~n:3
                ~inputs:(distinct 3) ~crash_budget:1 ~check:no_check ()
        in
        crash_verdict_token o
      in
      let baseline = run () in
      Alcotest.(check bool)
        (name ^ ": baseline classified") true
        (baseline <> "indeterminate");
      List.iter
        (fun reduction ->
          Alcotest.(check string)
            (Printf.sprintf "%s: seq %s" name (mode_name reduction))
            baseline
            (run ~reduction ());
          Alcotest.(check string)
            (Printf.sprintf "%s: par %s" name (mode_name reduction))
            baseline
            (run ~reduction ~domains:2 ()))
        reduced_modes)
    subjects

let test_differential_decision_values () =
  List.iter
    (fun (name, (module A : Sim.Algorithm.S)) ->
      let module Ex = Sim.Explorer.Make (A) in
      let sorted = List.sort Sim.Value.compare in
      let baseline =
        sorted
          (Ex.reachable_decision_values ~n:3 ~inputs:(distinct 3)
             ~crash_budget:1 ())
      in
      Alcotest.(check bool) (name ^ ": some value reachable") true (baseline <> []);
      List.iter
        (fun reduction ->
          let seq =
            sorted
              (Ex.reachable_decision_values ~reduction ~n:3
                 ~inputs:(distinct 3) ~crash_budget:1 ())
          in
          let par =
            sorted
              (Test_util.decision_values_par (fun ~check ->
                   Ex.explore_with_crashes_par ~reduction ~domains:2 ~n:3
                     ~inputs:(distinct 3) ~crash_budget:1 ~check ()))
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: values seq %s" name (mode_name reduction))
            true (baseline = seq);
          Alcotest.(check bool)
            (Printf.sprintf "%s: values par %s" name (mode_name reduction))
            true (baseline = par))
        reduced_modes)
    subjects

let policies =
  [
    ("per-sender", Sim.Explorer.Per_sender);
    ("empty-or-all", Sim.Explorer.Empty_or_all);
  ]

let test_differential_terminal_sets () =
  (* crash-free exploration under sym must surface exactly the
     unreduced terminal decision sets: orbit keys merge
     configurations, never the decision sets they reach.  Run under
     both bucket-granular delivery policies. *)
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun (name, (module A : Sim.Algorithm.S)) ->
          let module Ex = Sim.Explorer.Make (A) in
          let label = name ^ "/" ^ pname in
          let collect ?reduction ?domains () =
            match
              Test_util.terminal_sets ~correct:[ 0; 1; 2 ] (fun ~check ->
                  Ex.explore ?reduction ?domains ~policy ~n:3
                    ~inputs:(distinct 3) ~pattern:(FP.none ~n:3) ~check ())
            with
            | Sim.Explorer.Safe s, sets ->
                Alcotest.(check bool)
                  (label ^ ": untruncated") false
                  s.Sim.Explorer.budget_exhausted;
                sets
            | Sim.Explorer.Violation _, _ -> Alcotest.fail (label ^ ": violation")
          in
          let baseline = collect () in
          List.iter
            (fun reduction ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: terminals seq %s" label
                   (mode_name reduction))
                true
                (baseline = collect ~reduction ());
              Alcotest.(check bool)
                (Printf.sprintf "%s: terminals par %s" label
                   (mode_name reduction))
                true
                (baseline = collect ~reduction ~domains:2 ()))
            reduced_modes)
        subjects)
    policies

let test_reduction_reduces () =
  (* not a soundness property, but the reason the layer exists: on the
     kset_flp crash space the reduced admission count must be strictly
     smaller — if this starts failing the canon hooks have quietly
     stopped firing *)
  let module Ex = Sim.Explorer.Make (K2) in
  let visited reduction =
    match
      Ex.explore_with_crashes ~reduction ~n:3 ~inputs:(distinct 3)
        ~crash_budget:1 ~check:no_check ()
    with
    | Sim.Explorer.Stuck { stats; _ } -> stats.Sim.Explorer.configs_visited
    | o -> Alcotest.fail ("expected Stuck, got " ^ crash_verdict_token o)
  in
  let full = visited Canon.No_reduction in
  let reduced = visited Canon.Symmetry in
  Alcotest.(check bool)
    (Printf.sprintf "sym admits fewer configs (%d < %d)" reduced full)
    true (reduced < full)

let qcheck = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "reduction.canon",
      [
        qcheck prop_witness_idempotent;
        qcheck prop_orbit_invariance;
        Alcotest.test_case "live relabelling separates" `Quick
          test_live_swap_separates;
        Alcotest.test_case "crashed state + dead traffic elided" `Quick
          test_crashed_state_elided;
        Alcotest.test_case "movable decided multiset" `Quick
          test_movable_decided_multiset;
        Alcotest.test_case "independent engine steps commute" `Quick
          test_independent_steps_commute;
        qcheck prop_key_is_reference;
        qcheck prop_exact_key_order_free;
        qcheck prop_key_decodes;
        qcheck prop_keys_prefix_free;
        Alcotest.test_case "large rows grow the scratch" `Quick
          test_key_large_rows;
        Alcotest.test_case "exact key golden bytes" `Quick
          test_exact_key_golden;
        Alcotest.test_case "orbit key golden bytes" `Quick
          test_orbit_key_golden;
        qcheck prop_engine_key_is_canon_key;
        Alcotest.test_case "engine key into scratch allocates nothing" `Quick
          test_engine_key_allocates_nothing;
        qcheck prop_key_first_is_build_then_key;
        qcheck prop_explorer_path_replays;
        Alcotest.test_case "memo: cold and warm domains agree" `Quick
          test_memo_cold_warm;
        Alcotest.test_case "memo: exploration and recorded batches fold alike"
          `Quick test_memo_one_fold;
        Alcotest.test_case "key-first dedup hit and idle_step allocate nothing"
          `Quick test_key_first_allocates_nothing;
        Alcotest.test_case "crash-free dedup hit allocates nothing" `Quick
          test_free_probe_allocates_nothing;
        Alcotest.test_case "campaign words per admitted config" `Quick
          test_campaign_words_per_admitted;
        qcheck prop_idle_step_keeps_key;
        Alcotest.test_case "idle_step refusals" `Quick test_idle_step_cases;
        Alcotest.test_case "idle_step refuses a double decision" `Quick
          test_idle_step_double_decision;
      ] );
    ( "reduction.differential",
      [
        Alcotest.test_case "crash verdicts agree across modes" `Quick
          test_differential_crash_verdicts;
        Alcotest.test_case "reachable decision values agree" `Quick
          test_differential_decision_values;
        Alcotest.test_case "terminal decision sets agree" `Quick
          test_differential_terminal_sets;
        Alcotest.test_case "symmetry actually reduces" `Quick
          test_reduction_reduces;
      ] );
  ]
