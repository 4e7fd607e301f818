module Rng = Ksa_prim.Rng
module Listx = Ksa_prim.Listx
module Metrics = Ksa_prim.Metrics
module Intern = Ksa_prim.Intern

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false (Rng.next64 a = Rng.next64 b)

let test_rng_copy () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.next64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next64 a) (Rng.next64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs" false (Rng.next64 a = Rng.next64 b)

let test_rng_split_at_indexed () =
  (* split_at t i is the (i+1)-th consecutive split, computable
     without advancing the parent *)
  let t = Rng.create ~seed:5 in
  let child = Rng.split_at t 2 in
  let t' = Rng.create ~seed:5 in
  ignore (Rng.split t');
  ignore (Rng.split t');
  let child' = Rng.split t' in
  Alcotest.(check int64) "matches the 3rd split" (Rng.next64 child')
    (Rng.next64 child);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split_at: negative index") (fun () ->
      ignore (Rng.split_at t (-1)))

let test_rng_split_at_pure () =
  let t = Rng.create ~seed:9 in
  let before = Rng.next64 (Rng.copy t) in
  let a = Rng.split_at t 7 in
  let b = Rng.split_at t 7 in
  Alcotest.(check int64) "deterministic per index" (Rng.next64 a) (Rng.next64 b);
  Alcotest.(check int64) "parent not advanced" before (Rng.next64 t);
  let c = Rng.split_at t 8 in
  Alcotest.(check bool) "distinct indices, distinct streams" false
    (Rng.next64 (Rng.split_at t 7) = Rng.next64 c)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:99 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "out of bounds: %d" x
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: nonpositive bound")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_unit_interval () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of [0,1): %f" x
  done

let test_rng_sample_distinct () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 100 do
    let s = Rng.sample rng 5 (Listx.range 0 10) in
    Alcotest.(check int) "size" 5 (List.length s);
    Alcotest.(check int) "distinct" 5 (Listx.distinct_count s)
  done

let test_rng_pick_member () =
  let rng = Rng.create ~seed:3 in
  let xs = [ 2; 4; 8 ] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (List.mem (Rng.pick rng xs) xs)
  done

let test_listx_range () =
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Listx.range 2 5);
  Alcotest.(check (list int)) "empty" [] (Listx.range 5 5);
  Alcotest.(check (list int)) "reversed empty" [] (Listx.range 7 3)

let test_listx_take_drop () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take over" [ 1 ] (Listx.take 5 [ 1 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop all" [] (Listx.drop 9 [ 1; 2 ])

let test_listx_chunks () =
  Alcotest.(check (list (list int)))
    "chunks" [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Listx.chunks 2 [ 1; 2; 3; 4; 5 ]);
  Alcotest.check_raises "bad size" (Invalid_argument "Listx.chunks") (fun () ->
      ignore (Listx.chunks 0 [ 1 ]))

let test_listx_sets () =
  Alcotest.(check bool) "disjoint" true (Listx.disjoint [ 1; 2 ] [ 3 ]);
  Alcotest.(check bool) "not disjoint" false (Listx.disjoint [ 1; 2 ] [ 2 ]);
  Alcotest.(check bool) "subset" true (Listx.subset [ 1 ] [ 1; 2 ]);
  Alcotest.(check bool) "not subset" false (Listx.subset [ 3 ] [ 1; 2 ]);
  Alcotest.(check (list int)) "intersect" [ 2 ] (Listx.intersect [ 1; 2 ] [ 2; 3 ]);
  Alcotest.(check bool)
    "pairwise disjoint" true
    (Listx.pairwise_disjoint [ [ 1 ]; [ 2 ]; [ 3 ] ]);
  Alcotest.(check bool)
    "pairwise overlap" false
    (Listx.pairwise_disjoint [ [ 1 ]; [ 2; 1 ] ])

let test_listx_combinations () =
  Alcotest.(check (list (list int)))
    "C(3,2)"
    [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
    (Listx.combinations 2 [ 1; 2; 3 ]);
  Alcotest.(check (list (list int))) "C(2,3) empty" [] (Listx.combinations 3 [ 1; 2 ]);
  Alcotest.(check (list (list int))) "C(n,0)" [ [] ] (Listx.combinations 0 [ 1 ])

let test_listx_min_max_by () =
  Alcotest.(check int) "min_by" 3 (Listx.min_by (fun x -> -x) [ 1; 3; 2 ]);
  Alcotest.(check int) "max_by" 3 (Listx.max_by Fun.id [ 1; 3; 2 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Listx.min_by: empty list")
    (fun () -> ignore (Listx.min_by Fun.id []))

(* metrics: the registry is process-global, so every test uses its own
   "test.prim.*" names and asserts deltas, never absolute values *)

let test_metrics_counter () =
  let c = Metrics.counter "test.prim.counter" in
  let base = Metrics.value c in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" (base + 42) (Metrics.value c);
  (* same name, same instrument: the second lookup sees the increments *)
  Alcotest.(check int)
    "registration is idempotent" (base + 42)
    (Metrics.value (Metrics.counter "test.prim.counter"))

let test_metrics_kind_mismatch () =
  ignore (Metrics.counter "test.prim.kind");
  match Metrics.gauge "test.prim.kind" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind mismatch"
  | exception Invalid_argument _ -> ()

let test_metrics_gauge () =
  let g = Metrics.gauge "test.prim.gauge" in
  Metrics.gauge_set g 5;
  Metrics.gauge_max g 3;
  Alcotest.(check int) "watermark holds" 5 (Metrics.gauge_value g);
  Metrics.gauge_max g 9;
  Alcotest.(check int) "watermark rises" 9 (Metrics.gauge_value g)

let test_metrics_timer () =
  let t = Metrics.timer "test.prim.timer" in
  let calls = Metrics.timer_calls t in
  Alcotest.(check int) "result threads through" 42
    (Metrics.time t (fun () -> 42));
  Alcotest.(check int) "call counted" (calls + 1) (Metrics.timer_calls t);
  Alcotest.(check bool) "ns non-negative" true (Metrics.timer_ns t >= 0);
  (try Metrics.time t (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int)
    "raising call still counted" (calls + 2)
    (Metrics.timer_calls t)

let test_metrics_snapshot_delta () =
  let c = Metrics.counter "test.prim.delta" in
  let before = Metrics.snapshot () in
  Metrics.incr c;
  Metrics.incr c;
  let d = Metrics.delta ~before ~after:(Metrics.snapshot ()) in
  Alcotest.(check (option int))
    "delta isolates the two increments" (Some 2)
    (List.assoc_opt "test.prim.delta" d)

let test_metrics_probe () =
  let cell = ref 7 in
  Metrics.probe "test.prim.probe" (fun () -> !cell);
  Alcotest.(check (option int))
    "probe read at snapshot" (Some 7)
    (List.assoc_opt "test.prim.probe" (Metrics.snapshot ()));
  cell := 9;
  Alcotest.(check (option int))
    "probe is lazy" (Some 9)
    (List.assoc_opt "test.prim.probe" (Metrics.snapshot ()))

let test_metrics_json () =
  Alcotest.(check string)
    "flat object" "{\n  \"a.b\": 1,\n  \"c\": -2\n}\n"
    (Metrics.to_json [ ("a.b", 1); ("c", -2) ])

let test_metrics_concurrent_increments () =
  (* the whole point of the sharded counters: concurrent domains must
     never lose an increment *)
  let c = Metrics.counter "test.prim.mt" in
  let base = Metrics.value c in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Metrics.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments" (base + 40_000) (Metrics.value c)

(* property tests *)

let binomial n k =
  let rec go acc i = if i > k then acc else go (acc * (n - i + 1) / i) (i + 1) in
  if k < 0 || k > n then 0 else go 1 1

let prop_combinations_count =
  QCheck.Test.make ~name:"combinations count = C(n,k)" ~count:100
    QCheck.(pair (int_range 0 8) (int_range 0 10))
    (fun (k, n) ->
      List.length (Listx.combinations k (Listx.range 0 n)) = binomial n k)

let prop_combinations_distinct_sorted =
  QCheck.Test.make ~name:"combinations are distinct sublists" ~count:50
    QCheck.(pair (int_range 0 5) (int_range 0 8))
    (fun (k, n) ->
      let cs = Listx.combinations k (Listx.range 0 n) in
      List.length (List.sort_uniq compare cs) = List.length cs
      && List.for_all (fun c -> List.sort compare c = c) cs)

let prop_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle preserves the multiset" ~count:100
    QCheck.(pair small_int (small_list int))
    (fun (seed, xs) ->
      let rng = Rng.create ~seed in
      List.sort compare (Rng.shuffle rng xs) = List.sort compare xs)

let prop_chunks_flatten =
  QCheck.Test.make ~name:"chunks flatten back" ~count:100
    QCheck.(pair (int_range 1 5) (small_list int))
    (fun (k, xs) -> List.concat (Listx.chunks k xs) = xs)

(* the interner *)

(* Nested values of the shapes process states are made of.  The leaf
   domains are tiny so generated lists repeat values often; floats
   include nan (equal to itself under [compare]) and both zeros
   (equal to each other). *)
type nested =
  | I of int
  | S of string
  | F of float
  | L of nested list
  | T of nested * nested
  | M of nested Ksa_sim.Pid.Map.t

let gen_nested =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> I i) (int_range (-2) 2);
        map (fun s -> S s) (oneofl [ ""; "a"; "b" ]);
        map (fun f -> F f) (oneofl [ 0.0; -0.0; 1.5; nan; infinity ]);
      ]
  in
  (* the same bindings inserted in either order: maps with equal
     bindings may differ in tree shape, and then differ under
     [compare] *)
  let map_of (rev, kvs) =
    let kvs = if rev then List.rev kvs else kvs in
    M
      (List.fold_left
         (fun m (k, v) -> Ksa_sim.Pid.Map.add k v m)
         Ksa_sim.Pid.Map.empty kvs)
  in
  fix
    (fun self d ->
      if d = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (1, map (fun l -> L l) (list_size (int_bound 3) (self (d - 1))));
            (1, map2 (fun a b -> T (a, b)) (self (d - 1)) (self (d - 1)));
            ( 1,
              map map_of
                (pair bool
                   (list_size (int_bound 4) (pair (int_bound 3) (self (d - 1)))))
            );
          ])
    3

let arb_nested_list =
  QCheck.make
    ~print:(fun vs -> string_of_int (List.length vs) ^ " values")
    QCheck.Gen.(list_size (int_range 1 60) gen_nested)

(* a structurally equal, physically distinct copy *)
let deep_copy v = Marshal.from_string (Marshal.to_string v []) 0

(* The reference: the index of the first [compare]-equal value among
   the distinct values seen so far. *)
let reference_ids vs =
  let seen = ref [] in
  let ids =
    List.map
      (fun v ->
        let rec find i = function
          | [] ->
              seen := !seen @ [ v ];
              i
          | w :: rest -> if compare v w = 0 then i else find (i + 1) rest
        in
        find 0 !seen)
      vs
  in
  (ids, List.length !seen)

let prop_intern_exact =
  QCheck.Test.make ~name:"intern: id a = id b iff compare a b = 0, dense in first-seen order"
    ~count:300 arb_nested_list (fun vs ->
      let r = Intern.create ~size:1 () in
      let ids = List.map (fun v -> Intern.id r (deep_copy v)) vs in
      let expected, distinct = reference_ids vs in
      let pairs_ok =
        List.for_all2
          (fun a ia ->
            List.for_all2 (fun b ib -> (ia = ib) = (compare a b = 0)) vs ids)
          vs ids
      in
      ids = expected && pairs_ok
      && Intern.count r = distinct
      && Intern.watermark r = distinct
      && List.map (Intern.id r) vs = ids)

let prop_intern_dump_restore =
  QCheck.Test.make ~name:"intern: dump then restore reproduces every id"
    ~count:200 arb_nested_list (fun vs ->
      let r = Intern.create ~size:1 () in
      let ids = List.map (Intern.id r) vs in
      let d = Intern.dump r in
      let fresh = Intern.create ~size:1 () in
      let same = Intern.restore r d in
      let count = Intern.count r in
      Intern.restore fresh (Array.map deep_copy d) = Ok ()
      && Intern.count fresh = Array.length d
      && List.map (fun v -> Intern.id fresh (deep_copy v)) vs = ids
      && same = Ok ()
      && count = Array.length d
      && List.map (Intern.id r) vs = ids
      && List.for_all2 (fun v i -> compare d.(i) (Obj.repr v) = 0) vs ids)

let test_intern_restore_conflicts () =
  let dumped = Array.map Obj.repr [| "x"; "y" |] in
  (* "y" is live, but under another id than the dump gives it *)
  let swapped = Intern.create () in
  ignore (Intern.id swapped "y");
  ignore (Intern.id swapped "x");
  Alcotest.(check (result unit string))
    "dumped id is another live id"
    (Error "interner mismatch: dumped id 0 is live id 1")
    (Intern.restore swapped dumped);
  (* "x" is absent, but id 0 is already taken *)
  let taken = Intern.create () in
  ignore (Intern.id taken "z");
  Alcotest.(check (result unit string))
    "cannot graft"
    (Error
       "interner mismatch: cannot graft dumped id 0 into a table of 1 entries")
    (Intern.restore taken dumped)

let test_intern_concurrent () =
  (* two domains intern overlapping streams into a registry that
     starts with two slots, so inserts and resizes race with lock-free
     hits.  Both walk the values in the same blocks of 16, meeting at
     a barrier before each block; in each block domain [d] takes the
     values with [i mod 4 <> d], half of them shared, in its own
     shuffled order, so the two often first-see the same value at the
     same moment.  Each stream runs twice; the second pass mostly
     hits *)
  let n = 20_000 and block = 16 in
  let value i = (i mod 7, string_of_int i, [ i; -i ]) in
  let r = Intern.create ~size:1 () in
  let arrived = Atomic.make 0 in
  let worker d =
    let rng = Rng.create ~seed:d in
    let blocks =
      List.init (2 * n / block) (fun b ->
          let b = b mod (n / block) in
          Rng.shuffle rng
            (List.filter
               (fun i -> i mod 4 <> d)
               (Listx.range (b * block) ((b + 1) * block))))
    in
    Domain.spawn (fun () ->
        List.concat
          (List.mapi
             (fun round xs ->
               Atomic.incr arrived;
               while Atomic.get arrived < 2 * (round + 1) do
                 Domain.cpu_relax ()
               done;
               List.map (fun i -> (i, Intern.id r (value i))) xs)
             blocks))
  in
  let a = worker 0 and b = worker 1 in
  let answers = Domain.join a @ Domain.join b in
  let ids = Array.make n (-1) in
  List.iter
    (fun (i, id) ->
      if ids.(i) < 0 then ids.(i) <- id
      else if ids.(i) <> id then
        Alcotest.failf "value %d got ids %d and %d" i ids.(i) id)
    answers;
  Alcotest.(check int) "count" n (Intern.count r);
  Alcotest.(check (list int))
    "ids are 0..count-1, one per value" (Listx.range 0 n)
    (List.sort compare (Array.to_list ids));
  let d = Intern.dump r in
  Alcotest.(check int) "dump length" n (Array.length d);
  Array.iteri
    (fun i id ->
      if compare d.(id) (Obj.repr (value i)) <> 0 then
        Alcotest.failf "dump.(%d) is not value %d" id i)
    ids

module K2 = Ksa_algo.Kset_flp.Make (struct
  let l = 2
end)

module FK2 = Ksa_sim.Fuzz.Make (K2)

let test_intern_hash_spread () =
  (* kset-flp states differ deep inside their report maps; a hash that
     stops after a few words (the stdlib default reads 10 meaningful
     ones) files them under a few hundred values *)
  let cfg = Ksa_sim.Fuzz.default_config ~k:2 ~n:4 () in
  (match FK2.run cfg ~seed:1001 ~trials:1000 with
  | Ksa_sim.Fuzz.Clean _ -> ()
  | _ -> Alcotest.fail "expected a clean k=2 campaign");
  let vs = Intern.dump Intern.states in
  let hashes = List.sort_uniq compare (Array.to_list (Array.map Intern.hash vs)) in
  let total = Array.length vs and distinct = List.length hashes in
  if total < 1000 then Alcotest.failf "only %d states interned" total;
  if 100 * distinct < 99 * total then
    Alcotest.failf "%d distinct hashes for %d states" distinct total

let suites =
  [
    ( "prim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "split" `Quick test_rng_split_independent;
        Alcotest.test_case "split_at indexed" `Quick test_rng_split_at_indexed;
        Alcotest.test_case "split_at pure" `Quick test_rng_split_at_pure;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float range" `Quick test_rng_float_unit_interval;
        Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
        Alcotest.test_case "pick member" `Quick test_rng_pick_member;
      ] );
    ( "prim.listx",
      [
        Alcotest.test_case "range" `Quick test_listx_range;
        Alcotest.test_case "take/drop" `Quick test_listx_take_drop;
        Alcotest.test_case "chunks" `Quick test_listx_chunks;
        Alcotest.test_case "set ops" `Quick test_listx_sets;
        Alcotest.test_case "combinations" `Quick test_listx_combinations;
        Alcotest.test_case "min/max by" `Quick test_listx_min_max_by;
      ] );
    ( "prim.metrics",
      [
        Alcotest.test_case "counter" `Quick test_metrics_counter;
        Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
        Alcotest.test_case "gauge watermark" `Quick test_metrics_gauge;
        Alcotest.test_case "timer" `Quick test_metrics_timer;
        Alcotest.test_case "snapshot delta" `Quick test_metrics_snapshot_delta;
        Alcotest.test_case "probe" `Quick test_metrics_probe;
        Alcotest.test_case "json" `Quick test_metrics_json;
        Alcotest.test_case "concurrent increments" `Quick
          test_metrics_concurrent_increments;
      ] );
    ( "prim.intern",
      [
        QCheck_alcotest.to_alcotest prop_intern_exact;
        QCheck_alcotest.to_alcotest prop_intern_dump_restore;
        Alcotest.test_case "restore conflicts" `Quick
          test_intern_restore_conflicts;
        Alcotest.test_case "concurrent interning" `Quick test_intern_concurrent;
        Alcotest.test_case "hash spread" `Quick test_intern_hash_spread;
      ] );
    Test_util.qsuite "prim.properties"
      [
        prop_combinations_count;
        prop_combinations_distinct_sorted;
        prop_shuffle_permutes;
        prop_chunks_flatten;
      ];
  ]
