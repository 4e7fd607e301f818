(* The layer-replay pass of a traced run.

   A breadth-first search over [Engine.init_explore]/[Engine.apply]
   records a corpus of configurations (and the actions between them)
   from the workload's first campaign; each layer call is then timed
   directly over that corpus in batches of 1000: ns/op is the median
   over batches and words/op comes from [Gc.minor_words].  Layers
   that domains share (the interner, the Shardset) are also timed
   with two domains hammering one table.  These per-op costs, times
   the counts the workload's Metrics deltas report, attribute a
   campaign's wall time to its layers.  [Engine.apply] is timed on
   steps the search already took once, so the step memo hits, as it
   does for nearly every step of a real search
   (engine.memo.hit_ratio). *)

module J = Ksa_svc.Json
module Sim = Ksa_sim
module Intern = Ksa_prim.Intern
module Shardset = Ksa_prim.Shardset

let corpus_size = 20_000
let batch = 1000

(* Median ns/op and minor words/op of [f] over [items], batch by
   batch. *)
let time_batches items f =
  let len = Array.length items in
  let nb = max 1 (len / batch) in
  let per = Array.make nb 0. and words = Array.make nb 0. in
  for b = 0 to nb - 1 do
    let lo = b * batch and hi = min len ((b + 1) * batch) in
    let w0 = Gc.minor_words () in
    let t0 = Proc.now_ns () in
    for i = lo to hi - 1 do
      ignore (Sys.opaque_identity (f items.(i)))
    done;
    let t1 = Proc.now_ns () in
    let w1 = Gc.minor_words () in
    let ops = float_of_int (max 1 (hi - lo)) in
    per.(b) <- float_of_int (t1 - t0) /. ops;
    words.(b) <- (w1 -. w0) /. ops
  done;
  (Stats.median (Array.to_list per), Stats.median (Array.to_list words))

(* The same loop on two domains at once over one shared structure;
   the mean of the two domains' medians. *)
let time_d2 items f =
  let run () = fst (time_batches items f) in
  let d = Domain.spawn run in
  let mine = run () in
  (mine +. Domain.join d) /. 2.

let first_campaign profile (w : Plan.workload) ~seed =
  match w with
  | Plan.Border_seq | Plan.Border_par2 ->
      let c = List.hd (Plan.cells profile ~seed ~pass:0) in
      (c.n, Plan.cell_l c, c.inputs)
  | Plan.Explore_ckpt ->
      let c = Plan.ckpt profile ~seed ~pass:0 in
      (c.c_n, c.c_l, c.c_inputs)
  | Plan.Fuzz_hunt ->
      let f = Plan.fuzz profile ~seed ~pass:0 in
      (f.h_n, f.h_l, (List.hd f.hunts).h_inputs)
  | Plan.Serve_sweep -> (3, 2, Sim.Value.distinct_inputs 3)

let engine_layers ~n ~l ~inputs =
  let module K = Ksa_algo.Kset_flp.Make (struct
    let l = l
  end) in
  let module E = Sim.Engine.Make (K) in
  let pattern = Sim.Failure_pattern.none ~n in
  let actions c =
    let steps p =
      let inbox = E.inbox c p in
      let senders = List.sort_uniq compare (List.map snd inbox) in
      let per_sender =
        List.map (fun s -> List.filter_map (fun (id, src) -> if src = s then Some id else None) inbox) senders
      in
      List.sort_uniq compare ([] :: List.map fst inbox :: per_sender)
      |> List.map (fun deliver -> Sim.Adversary.Step { pid = p; deliver })
    in
    List.concat_map steps (List.init n Fun.id)
  in
  let bfs reduction =
    let seen = Hashtbl.create 65_536 in
    let q = Queue.create () in
    let configs = ref [] and pairs = ref [] and npairs = ref 0 and count = ref 0 in
    let init = E.init_explore ~reduction ~n ~inputs () in
    Hashtbl.add seen (E.key ~reduction init) ();
    Queue.push init q;
    while (not (Queue.is_empty q)) && !count < corpus_size do
      let c = Queue.pop q in
      List.iter
        (fun a ->
          match E.apply ~pattern c a with
          | exception E.Invalid_action _ -> ()
          | None -> ()
          | Some c' ->
              if !npairs < corpus_size then begin
                pairs := (c, a) :: !pairs;
                incr npairs
              end;
              let k = E.key ~reduction c' in
              if (not (Hashtbl.mem seen k)) && !count < corpus_size then begin
                Hashtbl.add seen k ();
                incr count;
                configs := c' :: !configs;
                Queue.push c' q
              end)
        (actions c)
    done;
    (Array.of_list (List.rev !configs), Array.of_list (List.rev !pairs))
  in
  let configs, pairs = bfs Sim.Canon.No_reduction in
  let sym_configs, _ = bfs Sim.Canon.Symmetry in
  let apply_ns, apply_w = time_batches pairs (fun (c, a) -> E.apply ~pattern c a) in
  let key_ns, key_w = time_batches configs (fun c -> E.key c) in
  let sym_ns, sym_w =
    time_batches sym_configs (fun c -> E.key ~reduction:Sim.Canon.Symmetry c)
  in
  (* interning: the corpus's distinct local states, into private
     registries so misses are real misses *)
  let states = Hashtbl.create 4096 in
  Array.iter
    (fun c -> List.iter (fun p -> Hashtbl.replace states (E.state_of c p) ()) (List.init n Fun.id))
    configs;
  let distinct = Array.of_seq (Hashtbl.to_seq_keys states) in
  let rounds = max 1 (corpus_size / max 1 (Array.length distinct)) in
  let repeated = Array.concat (List.init rounds (fun _ -> distinct)) in
  let miss_ns =
    Stats.median
      (List.init rounds (fun _ ->
           let r = Intern.create () in
           fst (time_batches distinct (fun s -> Intern.id r s))))
  in
  let warm = Intern.create () in
  Array.iter (fun s -> ignore (Intern.id warm s)) distinct;
  let hit_ns, _ = time_batches repeated (fun s -> Intern.id warm s) in
  let hit_d2 = time_d2 repeated (fun s -> Intern.id warm s) in
  (* Shardset admission over the corpus's configuration keys *)
  let keys = Array.map (fun c -> E.key c) configs in
  let table = Shardset.create ~name:"ksa_bench.replay" () in
  let tickets = ref 0 in
  let ticket () =
    incr tickets;
    Some !tickets
  in
  let new_ns, _ = time_batches keys (fun k -> Shardset.admit table k ~ticket) in
  let found_ns, _ = time_batches keys (fun k -> Shardset.admit table k ~ticket) in
  let found_d2 = time_d2 keys (fun k -> Shardset.admit table k ~ticket) in
  [
    ("corpus_configs", J.Int (Array.length configs));
    ("engine.apply.ns", J.Float apply_ns);
    ("engine.apply.words", J.Float apply_w);
    ("engine.key.ns", J.Float key_ns);
    ("engine.key.words", J.Float key_w);
    ("canon.key_sym.ns", J.Float sym_ns);
    ("canon.key_sym.words", J.Float sym_w);
    ("intern.miss.ns", J.Float miss_ns);
    ("intern.hit.ns", J.Float hit_ns);
    ("intern.hit.ns.d2", J.Float hit_d2);
    ("shardset.admit_new.ns", J.Float new_ns);
    ("shardset.admit_found.ns", J.Float found_ns);
    ("shardset.admit_found.ns.d2", J.Float found_d2);
  ]

(* Durable.write_atomic on a 4 MiB payload, and Jobstore submit and
   update on probe jobs, in a scratch directory. *)
let storage_layers ~work =
  let dir = Filename.concat work "replay-store" in
  Proc.mkdir_p dir;
  let ok = function Ok v -> v | Error e -> failwith e in
  let mb = 4 in
  let payload = String.make (mb * 1024 * 1024) 'k' in
  let path = Filename.concat dir "payload.bin" in
  let write_ms =
    List.init 6 (fun _ ->
        let t0 = Proc.now_ns () in
        ok (Ksa_prim.Durable.write_atomic ~path payload);
        float_of_int (Proc.now_ns () - t0) /. 1e6 /. float_of_int mb)
  in
  let store = ok (Ksa_svc.Jobstore.open_dir ~dir:(Filename.concat dir "jobs")) in
  let timed f =
    let t0 = Proc.now_ns () in
    let r = f () in
    (r, float_of_int (Proc.now_ns () - t0) /. 1e6)
  in
  let jobs =
    List.init 30 (fun _ ->
        timed (fun () ->
            ok
              (Ksa_svc.Jobstore.submit store
                 (Ksa_svc.Task.Probe { Ksa_svc.Task.p_fail = 0; p_spin = 0. }))))
  in
  let updates =
    List.map
      (fun (j, _) ->
        snd
          (timed (fun () ->
               ok
                 (Ksa_svc.Jobstore.update store
                    { j with Ksa_svc.Jobstore.state = Ksa_svc.Jobstore.Done }))))
      jobs
  in
  [
    ("durable.write_atomic.ms_per_mb", J.Float (Stats.median write_ms));
    ("jobstore.submit.ms", J.Float (Stats.median (List.map snd jobs)));
    ("jobstore.update.ms", J.Float (Stats.median updates));
  ]

(* The per-op costs as measured; the parent adds [scale] (as for any
   child) so that attribution can compare them with campaigns timed at
   another moment. *)
let replay ~profile ~workload ~seed ~work =
  let n, l, inputs = first_campaign profile workload ~seed in
  Units.ready ();
  let layers = engine_layers ~n ~l ~inputs in
  layers @ storage_layers ~work
