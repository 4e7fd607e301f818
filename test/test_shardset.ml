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
  [
    Test_util.qsuite "prim.shardset"
      [
        prop_matches_model;
        prop_iter_is_the_model;
        prop_key_bytes_gauge;
        prop_budgeted_admission;
        prop_no_lost_inserts_concurrent;
        prop_dense_tickets_concurrent;
      ];
  ]
