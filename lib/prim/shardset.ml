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

(* The one hash of the table, a function of a key's bytes: the probe
   from a scratch buffer, the string entry points and the resize all
   go through it.  Multiply-xorshift over the native 8-byte words (the
   last word overlapping its predecessor when the length is not a
   multiple of eight), seeded with the length; a word's top bit, which
   [Int64.to_int] drops, is folded back in through its upper half.  It
   mixes the whole key, which the packed configuration keys need: two
   configurations can differ only deep into the key.  The hash lives
   only in memory, so the byte order does not matter. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let mult = 0x2545F4914F6CDD1D

let[@inline] word b i =
  let w = get64u b i in
  Int64.to_int w lxor Int64.to_int (Int64.shift_right_logical w 32)

let[@inline] mix h w =
  let h = (h lxor w) * mult in
  h lxor (h lsr 29)

let rec words b last i h =
  if i >= last then mix h (word b last)
  else words b last (i + 8) (mix h (word b i))

let rec bytes b len i h =
  if i = len then h
  else bytes b len (i + 1) ((h lsl 8) lor Char.code (Bytes.unsafe_get b i))

let hash b len =
  let h =
    if len >= 8 then words b (len - 8) 0 len
    else mix len (bytes b len 0 0)
  in
  let h = h * mult in
  h lxor (h lsr 32)

let[@inline] shard_of t h = Array.unsafe_get t.shards (h land (Array.length t.shards - 1))

(* [k] is the [len] bytes at the start of [b]: word by word, the last
   word overlapping its predecessor as in {!hash}, or byte by byte
   below eight bytes *)
let rec equal_words k b last i =
  if i >= last then get64u k last = get64u b last
  else get64u k i = get64u b i && equal_words k b last (i + 8)

let rec equal_bytes k b len i =
  i = len
  || Char.equal (Bytes.unsafe_get k i) (Bytes.unsafe_get b i)
     && equal_bytes k b len (i + 1)

let equal_prefix k b len =
  String.length k = len
  &&
  let k = Bytes.unsafe_of_string k in
  if len >= 8 then equal_words k b (len - 8) 0 else equal_bytes k b len 0

(* Probe [keys] for the [len] bytes at the start of [b], from the
   hash's home slot: the slot [j] holding them, or [lnot j] for the
   empty slot [j] where an insert would land.  [wrapped] can only come
   back from a stale or concurrently-mutated snapshot (under the lock
   the load factor guarantees an empty slot) and sends the caller to
   the locked path.  A top-level loop over ints: the admission hot
   path allocates nothing here. *)
let wrapped = min_int

let rec probe_from keys b len m i steps =
  if steps > m + 1 then wrapped
  else
    let j = i land m in
    let k = Array.unsafe_get keys j in
    if String.length k = 0 then lnot j
    else if equal_prefix k b len then j
    else probe_from keys b len m (i + 1) (steps + 1)

let[@inline] probe keys b len start =
  probe_from keys b len (Array.length keys - 1) start 0

(* caller holds [s.lock] *)
let resize t s =
  let old_keys = s.keys and old_vals = s.vals in
  let cap = 2 * Array.length old_keys in
  let keys = Array.make cap "" and vals = Array.make cap 0 in
  Array.iteri
    (fun i k ->
      if String.length k <> 0 then begin
        let b = Bytes.unsafe_of_string k and len = String.length k in
        let j = probe keys b len (hash b len lsr t.shard_bits) in
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
  if s.count > s.limit then resize t s

let check_len what len =
  if len = 0 then
    invalid_arg ("Shardset." ^ what ^ ": the empty key is reserved")

let refused = min_int

(* The check-then-admit step over the [len] bytes at the start of [b].
   [key] is those bytes as a string when the caller has one, and ""
   when an insert must copy them out. *)
let admit_in t b len key ~ticket =
  let h = hash b len in
  let s = shard_of t h in
  let start = h lsr t.shard_bits in
  Mutex.lock s.lock;
  let j = probe s.keys b len start in
  let r =
    if j >= 0 then s.vals.(j)
    else begin
      (* load factor < 1 under the lock *)
      assert (j <> wrapped);
      let v = ticket () in
      if v < 0 then refused
      else begin
        let key =
          if String.length key = 0 then Bytes.sub_string b 0 len else key
        in
        insert t s key ~start (lnot j) v;
        lnot v
      end
    end
  in
  Mutex.unlock s.lock;
  r

let admit_bytes t b len ~ticket =
  check_len "admit_bytes" len;
  admit_in t b len "" ~ticket

let admit_key t key ~ticket =
  check_len "admit_key" (String.length key);
  admit_in t (Bytes.unsafe_of_string key) (String.length key) key ~ticket

let admit t key ~ticket =
  match
    admit_key t key ~ticket:(fun () ->
        match ticket () with Some v -> v | None -> -1)
  with
  | r when r >= 0 -> Found r
  | r when r = refused -> Rejected
  | r -> Admitted (lnot r)

(* [admit] with an always-granting ticket, without its allocations:
   resumed campaigns restore whole tables through it *)
let add t key v =
  let len = String.length key in
  check_len "add" len;
  let b = Bytes.unsafe_of_string key in
  let h = hash b len in
  let s = shard_of t h in
  let start = h lsr t.shard_bits in
  Mutex.lock s.lock;
  let j = probe s.keys b len start in
  assert (j <> wrapped);
  if j < 0 then insert t s key ~start (lnot j) v;
  Mutex.unlock s.lock;
  j < 0

let find t key =
  if String.length key = 0 then None
  else begin
    let b = Bytes.unsafe_of_string key and len = String.length key in
    let h = hash b len in
    let s = shard_of t h in
    Mutex.lock s.lock;
    let j = probe s.keys b len (h lsr t.shard_bits) in
    let r = if j >= 0 then Some s.vals.(j) else None in
    Mutex.unlock s.lock;
    r
  end

let mem_bytes t b len =
  len > 0
  &&
  let h = hash b len in
  let s = shard_of t h in
  let start = h lsr t.shard_bits in
  (* optimistic: one load of the published table, no lock.  A hit is
     definitive (insert-only); a miss may be stale, so confirm. *)
  probe s.keys b len start >= 0
  || begin
       Mutex.lock s.lock;
       let j = probe s.keys b len start in
       Mutex.unlock s.lock;
       j >= 0
     end

let mem t key = mem_bytes t (Bytes.unsafe_of_string key) (String.length key)

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
