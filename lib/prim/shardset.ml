(* Sharded concurrent insert-only string->int map.  See the .mli for
   the layout and the soundness argument of the optimistic read. *)

type shard = {
  lock : Mutex.t;
  (* [keys]/[vals] are replaced wholesale on resize (the old arrays
     are never written again), so an optimistic reader that loaded
     [keys] once probes a coherent — possibly stale — snapshot. *)
  mutable keys : string array;
  mutable vals : int array;
  mutable count : int;
  mutable bytes : int;  (* total length of the keys held *)
  mutable limit : int;  (* resize watermark: 7/10 of capacity *)
}

type t = {
  shards : shard array;
  shard_bits : int;
  c_collisions : Metrics.counter;
  c_resizes : Metrics.counter;
  g_occupancy : Metrics.gauge;
  g_capacity : Metrics.gauge;
  g_key_bytes : Metrics.gauge;
  g_shard_max : Metrics.gauge;
  g_shard_min : Metrics.gauge;
}

type admission = Found of int | Admitted of int | Rejected

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(shards = 64) ?(capacity = 65_536) ~name () =
  let nshards = pow2_at_least (max 1 shards) 1 in
  let per_shard = pow2_at_least (max 16 (capacity / nshards)) 16 in
  let mk _ =
    {
      lock = Mutex.create ();
      keys = Array.make per_shard "";
      vals = Array.make per_shard 0;
      count = 0;
      bytes = 0;
      limit = per_shard * 7 / 10;
    }
  in
  let rec bits_of n acc = if n <= 1 then acc else bits_of (n lsr 1) (acc + 1) in
  {
    shards = Array.init nshards mk;
    shard_bits = bits_of nshards 0;
    c_collisions = Metrics.counter (Printf.sprintf "shardset.%s.collisions" name);
    c_resizes = Metrics.counter (Printf.sprintf "shardset.%s.resizes" name);
    g_occupancy = Metrics.gauge (Printf.sprintf "shardset.%s.occupancy" name);
    g_capacity = Metrics.gauge (Printf.sprintf "shardset.%s.capacity" name);
    g_key_bytes = Metrics.gauge (Printf.sprintf "shardset.%s.key_bytes" name);
    g_shard_max =
      Metrics.gauge (Printf.sprintf "shardset.%s.shard.occupancy.max" name);
    g_shard_min =
      Metrics.gauge (Printf.sprintf "shardset.%s.shard.occupancy.min" name);
  }

(* [Hashtbl.hash] mixes the whole string (the traversal limit only
   bounds structured values), which the packed configuration keys
   need: two configs can differ only deep into the key. *)
let[@inline] hash_of key = Hashtbl.hash (key : string)
let[@inline] shard_of t h = Array.unsafe_get t.shards (h land (Array.length t.shards - 1))

(* Probe [keys] from the hash's home slot: the slot [j] holding
   [key], or [lnot j] for the empty slot [j] where an insert would
   land.  [wrapped] can only come back from a stale or
   concurrently-mutated snapshot (under the lock the load factor
   guarantees an empty slot) and sends the caller to the locked path.
   A top-level loop over ints: the admission hot path allocates
   nothing here. *)
let wrapped = min_int

let rec probe_from keys key m i steps =
  if steps > m + 1 then wrapped
  else
    let j = i land m in
    let k = Array.unsafe_get keys j in
    if String.length k = 0 then lnot j
    else if String.equal k key then j
    else probe_from keys key m (i + 1) (steps + 1)

let[@inline] probe keys key start =
  probe_from keys key (Array.length keys - 1) start 0

(* caller holds [s.lock] *)
let resize t s start_of =
  let old_keys = s.keys and old_vals = s.vals in
  let cap = 2 * Array.length old_keys in
  let keys = Array.make cap "" and vals = Array.make cap 0 in
  Array.iteri
    (fun i k ->
      if String.length k <> 0 then begin
        let j = probe keys k (start_of k) in
        assert (j < 0 && j <> wrapped);
        keys.(lnot j) <- k;
        vals.(lnot j) <- old_vals.(i)
      end)
    old_keys;
  s.keys <- keys;
  s.vals <- vals;
  s.limit <- cap * 7 / 10;
  Metrics.incr t.c_resizes

(* Insert [key -> v] at the empty slot [j] that [probe] returned
   from [start]; caller holds [s.lock] *)
let insert t s key ~start j v =
  let steps = (j - start) land (Array.length s.keys - 1) in
  if steps > 0 then Metrics.add t.c_collisions steps;
  (* value before key: a racy reader that observes the key observes a
     fully-initialised slot *)
  s.vals.(j) <- v;
  s.keys.(j) <- key;
  s.count <- s.count + 1;
  s.bytes <- s.bytes + String.length key;
  if s.count > s.limit then resize t s (fun k -> hash_of k lsr t.shard_bits)

let check_key what key =
  if String.length key = 0 then
    invalid_arg ("Shardset." ^ what ^ ": the empty key is reserved")

let admit t key ~ticket =
  check_key "admit" key;
  let h = hash_of key in
  let s = shard_of t h in
  let start = h lsr t.shard_bits in
  Mutex.lock s.lock;
  let j = probe s.keys key start in
  let result =
    if j >= 0 then Found s.vals.(j)
    else begin
      (* load factor < 1 under the lock *)
      assert (j <> wrapped);
      match ticket () with
      | None -> Rejected
      | Some v ->
          insert t s key ~start (lnot j) v;
          Admitted v
    end
  in
  Mutex.unlock s.lock;
  result

(* [admit] with an always-granting ticket, without its allocations:
   resumed campaigns restore whole tables through it *)
let add t key v =
  check_key "add" key;
  let h = hash_of key in
  let s = shard_of t h in
  let start = h lsr t.shard_bits in
  Mutex.lock s.lock;
  let j = probe s.keys key start in
  assert (j <> wrapped);
  if j < 0 then insert t s key ~start (lnot j) v;
  Mutex.unlock s.lock;
  j < 0

let find t key =
  if String.length key = 0 then None
  else begin
    let h = hash_of key in
    let s = shard_of t h in
    Mutex.lock s.lock;
    let j = probe s.keys key (h lsr t.shard_bits) in
    let r = if j >= 0 then Some s.vals.(j) else None in
    Mutex.unlock s.lock;
    r
  end

let mem t key =
  if String.length key = 0 then false
  else begin
    let h = hash_of key in
    let s = shard_of t h in
    (* optimistic: one load of the published table, no lock.  A hit is
       definitive (insert-only); a miss may be stale, so confirm. *)
    probe s.keys key (h lsr t.shard_bits) >= 0 || find t key <> None
  end

let length t =
  Array.fold_left (fun acc s -> acc + s.count) 0 t.shards

let iter f t =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.lock)
        (fun () ->
          Array.iteri
            (fun i k -> if String.length k <> 0 then f k s.vals.(i))
            s.keys))
    t.shards

let publish_metrics t =
  let occ = ref 0 and cap = ref 0 and bytes = ref 0 in
  let mx = ref 0 and mn = ref max_int in
  Array.iter
    (fun s ->
      occ := !occ + s.count;
      cap := !cap + Array.length s.keys;
      bytes := !bytes + s.bytes;
      if s.count > !mx then mx := s.count;
      if s.count < !mn then mn := s.count)
    t.shards;
  Metrics.gauge_set t.g_occupancy !occ;
  Metrics.gauge_set t.g_capacity !cap;
  Metrics.gauge_set t.g_key_bytes !bytes;
  Metrics.gauge_set t.g_shard_max !mx;
  Metrics.gauge_set t.g_shard_min (if !mn = max_int then 0 else !mn)
