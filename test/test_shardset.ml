(* Ksa_prim.Shardset: the shared dedup table of the parallel
   explorers.  The properties the explorers lean on: membership
   matches a model hash table under any operation sequence; under
   concurrent domains no insert is lost and every key has exactly one
   admission winner; and the ticketed [admit] consumes tickets only
   for genuinely-new keys, so a budget bounds insertions exactly. *)

module Shardset = Ksa_prim.Shardset

let mk ?(shards = 8) ?(capacity = 64) () =
  (* small shards + tiny capacity so tests exercise the resize path *)
  Shardset.create ~shards ~capacity ~name:"test" ()

(* short strings collide across operations often enough to test the
   found-vs-admitted distinction; never empty (reserved sentinel) *)
let key_gen =
  QCheck.Gen.(
    map
      (fun (a, b) -> Printf.sprintf "%c%d" (Char.chr (97 + a)) b)
      (pair (int_bound 5) (int_bound 40)))

let keys_arb = QCheck.make ~print:(String.concat ",") QCheck.Gen.(list_size (int_bound 400) key_gen)

(* ---------- sequential model conformance ---------- *)

let prop_matches_model =
  QCheck.Test.make ~name:"add/mem/find/length match a model Hashtbl"
    ~count:100 keys_arb (fun keys ->
      let t = mk () in
      let model : (string, int) Hashtbl.t = Hashtbl.create 64 in
      List.iteri
        (fun i k ->
          let inserted = Shardset.add t k i in
          let fresh = not (Hashtbl.mem model k) in
          if fresh then Hashtbl.add model k i;
          if inserted <> fresh then
            QCheck.Test.fail_reportf "add %S: inserted=%b fresh=%b" k inserted
              fresh)
        keys;
      Hashtbl.iter
        (fun k v ->
          if not (Shardset.mem t k) then
            QCheck.Test.fail_reportf "lost key %S" k;
          if Shardset.find t k <> Some v then
            QCheck.Test.fail_reportf "wrong value for %S" k)
        model;
      List.iter
        (fun k ->
          let probe = k ^ "?" in
          if Shardset.mem t probe <> Hashtbl.mem model probe then
            QCheck.Test.fail_reportf "membership mismatch on %S" probe)
        keys;
      Shardset.length t = Hashtbl.length model)

let prop_iter_is_the_model =
  QCheck.Test.make ~name:"iter enumerates exactly the inserted bindings"
    ~count:50 keys_arb (fun keys ->
      let t = mk () in
      let model : (string, int) Hashtbl.t = Hashtbl.create 64 in
      List.iteri
        (fun i k ->
          if Shardset.add t k i then Hashtbl.add model k i)
        keys;
      let seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
      Shardset.iter
        (fun k v ->
          if Hashtbl.mem seen k then
            QCheck.Test.fail_reportf "iter visited %S twice" k;
          Hashtbl.add seen k v)
        t;
      seen = model || (
        Hashtbl.length seen = Hashtbl.length model
        && Hashtbl.fold
             (fun k v acc -> acc && Hashtbl.find_opt seen k = Some v)
             model true))

(* the published [key_bytes] gauge is the summed length of the
   distinct keys held, whatever the duplicates and resizes *)
let prop_key_bytes_gauge =
  QCheck.Test.make ~name:"key_bytes gauge sums the held keys' lengths"
    ~count:50 keys_arb (fun keys ->
      let t = mk () in
      List.iteri (fun i k -> ignore (Shardset.add t k i)) keys;
      Shardset.publish_metrics t;
      let module M = Ksa_prim.Metrics in
      M.gauge_value (M.gauge "shardset.test.key_bytes")
      = List.fold_left
          (fun acc k -> acc + String.length k)
          0
          (List.sort_uniq compare keys))

(* ---------- ticketed admission ---------- *)

let prop_budgeted_admission =
  QCheck.Test.make
    ~name:"admit consumes tickets only for new keys and stops at the budget"
    ~count:100
    QCheck.(pair keys_arb (int_range 0 50))
    (fun (keys, budget) ->
      let t = mk () in
      let next = ref 0 in
      let ticket () =
        if !next >= budget then None
        else begin
          let v = !next in
          incr next;
          Some v
        end
      in
      let admitted = ref 0 and found = ref 0 and rejected = ref 0 in
      List.iter
        (fun k ->
          match Shardset.admit t k ~ticket with
          | Shardset.Admitted _ -> incr admitted
          | Shardset.Found _ -> incr found
          | Shardset.Rejected -> incr rejected)
        keys;
      let distinct =
        List.length (List.sort_uniq compare keys)
      in
      !admitted = min budget distinct
      && !admitted = Shardset.length t
      && !next = !admitted (* no ticket burned on a duplicate *)
      && !admitted + !found + !rejected = List.length keys)

(* ---------- probing from a buffer ---------- *)

(* Keys that share prefixes but differ in length, up to 40 bytes
   (several 8-byte words, and tails of every length), with bytes
   across the whole range: prefixes of a few random stems, some with
   one byte changed, so equal lengths differ in a single word. *)
let prefix_keys_gen =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (string_size ~gen:(map Char.chr (int_bound 255)) (int_range 1 40))
    >>= fun stems ->
    list_size (int_bound 300)
      (oneofl stems >>= fun stem ->
       int_range 1 (String.length stem) >>= fun len ->
       let key = String.sub stem 0 len in
       frequency
         [
           (3, return key);
           ( 1,
             int_bound (len - 1) >>= fun i ->
             int_bound 255 >>= fun c ->
             return
               (String.mapi (fun j x -> if j = i then Char.chr c else x) key)
           );
         ]))

let prefix_keys_arb =
  QCheck.make ~print:(fun l -> String.concat "," (List.map String.escaped l))
    prefix_keys_gen

(* the same budgeted ticket source for two tables: [budget] tickets,
   then refusals *)
let int_tickets budget =
  let next = ref 0 in
  fun () ->
    if !next >= budget then -1
    else begin
      let v = !next in
      incr next;
      v
    end

let prop_bytes_probe_is_string_admit =
  QCheck.Test.make
    ~name:"admit_bytes from a buffer = admit on the string, through resizes"
    ~count:200
    QCheck.(pair prefix_keys_arb (int_range 0 300))
    (fun (keys, budget) ->
      let by_bytes = mk ~shards:2 ~capacity:16 ()
      and by_string = mk ~shards:2 ~capacity:16 () in
      let ticket_b = int_tickets budget and ticket_s = int_tickets budget in
      (* the admitted keys and their tickets *)
      let model : (string, int) Hashtbl.t = Hashtbl.create 64 in
      (* the key at the start of a buffer whose tail is garbage *)
      let buf = Bytes.make 64 '\xff' in
      List.iter
        (fun k ->
          let len = String.length k in
          let present = Shardset.mem by_string k in
          if present <> Hashtbl.mem model k then
            QCheck.Test.fail_reportf "mem %S disagrees with the model" k;
          Bytes.blit_string k 0 buf 0 len;
          if Shardset.mem_bytes by_bytes buf len <> present then
            QCheck.Test.fail_reportf "mem_bytes %S" k;
          let rb = Shardset.admit_bytes by_bytes buf len ~ticket:ticket_b in
          let ticket () =
            let v = ticket_s () in
            if v < 0 then None else Some v
          in
          let rs =
            match Shardset.admit by_string k ~ticket with
            | Shardset.Found v -> v
            | Shardset.Admitted v -> lnot v
            | Shardset.Rejected -> Shardset.refused
          in
          if rb <> rs then
            QCheck.Test.fail_reportf "%S: bytes %d, string %d" k rb rs;
          if present <> (rb >= 0) then
            QCheck.Test.fail_reportf "%S: found %d but mem %b" k rb present;
          (match Hashtbl.find_opt model k with
          | Some v ->
              if v <> rb then
                QCheck.Test.fail_reportf "%S: found %d, not %d" k rb v
          | None ->
              if rb < 0 && rb <> Shardset.refused then
                Hashtbl.add model k (lnot rb));
          (* once admitted, the string probe finds the same id *)
          let id = if rb < 0 && rb <> Shardset.refused then lnot rb else rb in
          if Shardset.admit_key by_string k ~ticket:(fun () -> -1) <> id then
            QCheck.Test.fail_reportf "%S: admit_key disagrees" k)
        keys;
      Shardset.length by_bytes = Hashtbl.length model
      && Shardset.length by_string = Hashtbl.length model)

let test_hit_allocates_nothing () =
  let t = mk ~shards:4 ~capacity:16 () in
  let keys =
    List.init 200 (fun i ->
        Printf.sprintf "key-%d-%s" i (String.make (i mod 30) 'x'))
  in
  List.iteri (fun i k -> ignore (Shardset.add t k i)) keys;
  let buf = Bytes.make 64 '\000' in
  let ticket () = Alcotest.fail "a hit drew a ticket" in
  List.iter
    (fun i ->
      let k = List.nth keys i in
      let len = String.length k in
      Bytes.blit_string k 0 buf 0 len;
      Alcotest.(check int) ("found " ^ k) i
        (Shardset.admit_bytes t buf len ~ticket);
      Alcotest.(check (float 0.))
        ("admit_bytes hit words, " ^ k)
        0.
        (Test_util.words_per_loop 1000 (fun () ->
             ignore (Shardset.admit_bytes t buf len ~ticket : int)));
      Alcotest.(check (float 0.))
        ("mem_bytes hit words, " ^ k)
        0.
        (Test_util.words_per_loop 1000 (fun () ->
             ignore (Shardset.mem_bytes t buf len : bool))))
    [ 0; 17; 199 ]

(* ---------- concurrent domains ---------- *)

let prop_no_lost_inserts_concurrent =
  (* every domain races to insert an overlapping slice of the key
     space; afterwards every key must be present, the length must be
     the size of the union, and each key must have exactly one
     admission winner (the admit path is atomic per key) *)
  QCheck.Test.make ~name:"no lost inserts, one winner per key (4 domains)"
    ~count:15
    QCheck.(int_range 50 300)
    (fun nkeys ->
      let t = mk ~shards:16 ~capacity:64 () in
      let ndomains = 4 in
      let wins = Array.make ndomains 0 in
      let domains =
        List.init ndomains (fun d ->
            Domain.spawn (fun () ->
                (* overlapping slices: every domain covers all residues
                   except one, so most keys are contested *)
                let w = ref 0 in
                for i = 0 to nkeys - 1 do
                  if i mod ndomains <> (d + 1) mod ndomains then
                    if Shardset.add t (string_of_int i) i then incr w
                done;
                !w))
      in
      List.iteri (fun d h -> wins.(d) <- Domain.join h) domains;
      let total_wins = Array.fold_left ( + ) 0 wins in
      let ok = ref (Shardset.length t = nkeys && total_wins = nkeys) in
      for i = 0 to nkeys - 1 do
        let k = string_of_int i in
        if not (Shardset.mem t k) then ok := false;
        if Shardset.find t k <> Some i then ok := false
      done;
      !ok)

let prop_dense_tickets_concurrent =
  (* the explorers' admission pattern: a shared fetch-and-add ticket
     source drawn under the shard lock.  Afterwards the granted
     tickets must be exactly 0..length-1, each bound to one key —
     admission atomicity means no ticket is ever drawn twice or
     skipped below the high-water mark *)
  QCheck.Test.make ~name:"shared ticket source stays dense (4 domains)"
    ~count:15
    QCheck.(int_range 50 200)
    (fun nkeys ->
      let t = mk ~shards:16 () in
      let counter = Atomic.make 0 in
      let ticket () = Some (Atomic.fetch_and_add counter 1) in
      let domains =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for i = 0 to nkeys - 1 do
                  ignore (Shardset.admit t (string_of_int i) ~ticket)
                done))
      in
      List.iter Domain.join domains;
      let n = Shardset.length t in
      let seen_tickets = Array.make n false in
      let ok = ref (n = nkeys && Atomic.get counter = n) in
      Shardset.iter
        (fun _ v ->
          if v < 0 || v >= n || seen_tickets.(v) then ok := false
          else seen_tickets.(v) <- true)
        t;
      !ok && Array.for_all Fun.id seen_tickets)

let suites =
  let name, cases =
    Test_util.qsuite "prim.shardset"
      [
        prop_matches_model;
        prop_iter_is_the_model;
        prop_key_bytes_gauge;
        prop_budgeted_admission;
        prop_bytes_probe_is_string_admit;
        prop_no_lost_inserts_concurrent;
        prop_dense_tickets_concurrent;
      ]
  in
  [
    ( name,
      cases
      @ [
          Alcotest.test_case "a hit from a buffer allocates nothing" `Quick
            test_hit_allocates_nothing;
        ] );
  ]
