(* Reduction layer: symmetry orbit keys.

   This module is pure integer/array arithmetic — it knows nothing
   about any particular algorithm.  The engine writes the packed
   pending triples of a configuration into this domain's scratch int
   array and hands over its per-pid rows (state id, decided value)
   with a crashed mask; {!write_key} writes the configuration's dedup
   key — exact, or the orbit representative's — as varints into the
   domain's scratch buffer, where the explorers probe their tables
   with it.  {!key} does the same from a [rows] record and copies the
   key out.  {!canonicalize} and {!serialize} spell the orbit
   representative out as a value, together with the witnessing
   permutation; they are the reference {!key} is tested against, not a
   production path. *)

type reduction = No_reduction | Symmetry

let reduction_to_string = function No_reduction -> "none" | Symmetry -> "sym"

let reduction_of_string = function
  | "none" -> Ok No_reduction
  | "sym" -> Ok Symmetry
  | "sym+por" ->
      Error
        "reduction \"sym+por\" was removed: its sleep sets admitted more \
         configurations than sym; sym gives the same crash-driver results"
  | s -> Error (Printf.sprintf "unknown reduction %S (expected none or sym)" s)

(* ---- packed pending triples ----

   A pending message packs into a single int: src in bits 51..61, dst
   in bits 40..50, payload id in bits 0..39.  The widths are far
   beyond any explorable system (n < 2048; 2^40 distinct payloads
   would not fit in memory), and packed triples sort and compare as
   plain ints.  The packing lives here because both the engine's key
   builder and the reduction layer take triples apart. *)

let pack_triple src dst pl = (src lsl 51) lor (dst lsl 40) lor pl
let payload_mask = (1 lsl 40) - 1
let triple_src t = t lsr 51
let triple_dst t = (t lsr 40) land 0x7ff
let triple_payload t = t land payload_mask

(* (src, payload) with the destination dropped: the content signature
   of one delivered message, used by delivery actions whose receiver
   is already named by the stepping pid *)
let triple_content t = ((t lsr 51) lsl 40) lor (t land payload_mask)

(* ---- zigzag LEB128 varints ----

   Keys are int sequences written as zigzag LEB128 varints.  [zigzag]
   folds the sign into bit 0 (0, -1, 1, -2, ... map to 0, 1, 2, 3, ...)
   and each byte carries seven bits of the result, low group first,
   with the high bit set on every byte but the last.  The ids, masks
   and counts in a key are small, so most ints take one or two bytes.
   Negative results of [zigzag] stand for 63-bit unsigned values
   ([lsr] reads them so) and take nine bytes. *)

let[@inline] zigzag i = (i lsl 1) lxor (i asr (Sys.int_size - 1))

(* writes zigzag value [z] at [pos]; the position after it *)
let rec put_varint b pos z =
  if z lsr 7 = 0 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr z);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr ((z land 0x7f) lor 0x80));
    put_varint b (pos + 1) (z lsr 7)
  end

(* Writes [i] at [pos] of a scratch buffer with room for nine bytes
   and one more; the position after it.  An int whose zigzag is below
   2^14 — nearly every int of a key — takes one or two bytes without a
   branch on which: the second byte is written either way, and the
   next int overwrites it when the first byte ends the varint. *)
let[@inline] put b pos i =
  let z = zigzag i in
  if z lsr 14 = 0 then begin
    let hi = z lsr 7 in
    let more = (hi + 0x7f) lsr 7 in
    Bytes.unsafe_set b pos (Char.unsafe_chr ((z land 0x7f) lor (more lsl 7)));
    Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr hi);
    pos + 1 + more
  end
  else put_varint b pos z

(* A key is written into a domain-local scratch buffer (its slices to
   sort go through a scratch int array first) and read from there: a
   caller that only probes a table with it allocates nothing, and one
   that keeps it copies it out.  Both grow on demand and never shrink. *)
type scratch = { mutable ints : int array; mutable buf : Bytes.t }

let scratch =
  Domain.DLS.new_key (fun () ->
      { ints = Array.make 64 0; buf = Bytes.create 1024 })

(* room for [len] ints *)
let buf_for s ~len =
  let need = (9 * len) + 1 in
  if Bytes.length s.buf < need then
    s.buf <- Bytes.create (max need (2 * Bytes.length s.buf));
  s.buf

let key_buffer () = (Domain.DLS.get scratch).buf

(* insertion sort of [a.(lo) .. a.(hi - 1)]: the slices sorted here
   (pending triples, decided values) are a handful of ints *)
let sort_slots (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* ---- process-permutation symmetry ----

   The interned rows of a configuration under a crashed-set mask.
   [decided] keeps every output ever written, including by crashed
   processes: the k-agreement oracle counts them. *)
type 'd rows = {
  n : int;
  crashed : int;  (** bitmask of crashed pids *)
  state_ids : int array;  (** interned local-state id per pid *)
  decided : 'd option array;
      (** decided output per pid, in whatever shape the caller keeps
          it; {!key} projects the value out *)
  triples : int array;  (** packed (src, dst, payload) triples, any order *)
}

(* Which pids can be relabelled without changing any future behaviour?

   Live pids cannot: local states embed [me], so relabelling a live
   pid changes the messages it will send and the decisions it will
   take.  A crashed pid's local state is inert (it never steps again),
   and a pending message {e to} a crashed pid can never be delivered
   — but a pending message {e from} a crashed pid to a live one is
   still observable (it can be delivered, or dropped under last-step
   omission), so its sender's identity is load-bearing.  The movable
   set is therefore: crashed pids with no retained (live-destination)
   pending triple naming them as source.  Only their decided outputs
   remain observable, and the oracle is pid-invariant over those. *)
let movable rows =
  let src_mask = ref 0 in
  Array.iter
    (fun t ->
      if rows.crashed land (1 lsl triple_dst t) = 0 then
        src_mask := !src_mask lor (1 lsl triple_src t))
    rows.triples;
  List.filter
    (fun p ->
      rows.crashed land (1 lsl p) <> 0 && !src_mask land (1 lsl p) = 0)
    (List.init rows.n Fun.id)

type canonical = {
  retained : int array;
      (** sorted pending triples with a live destination; triples to
          crashed processes are inert and elided *)
  row_ids : int array;
      (** per-pid state id, with crashed pids' inert states elided to
          [-1] *)
  fixed_decided : (int * int) list;
      (** (pid, value) outputs of non-movable pids, pid-ascending *)
  movable_decided : int list;
      (** sorted value multiset of the movable pids' outputs — the
          orbit representative forgets {e which} movable pid wrote
          {e which} value *)
  movable_pids : int list;  (** the movable pids, ascending *)
  perm : int array;
      (** witnessing permutation: [perm.(p)] is the pid slot [p]
          occupies in the orbit representative.  Identity outside the
          movable set. *)
}

(* relabel every pid [p] as [perm.(p)] — used to state and test the
   orbit properties, and to apply the witness *)
let permute_rows perm rows =
  let inv = Array.make rows.n 0 in
  Array.iteri (fun p q -> inv.(q) <- p) perm;
  {
    rows with
    crashed =
      List.fold_left
        (fun m p ->
          if rows.crashed land (1 lsl p) <> 0 then m lor (1 lsl perm.(p))
          else m)
        0
        (List.init rows.n Fun.id);
    state_ids = Array.init rows.n (fun q -> rows.state_ids.(inv.(q)));
    decided = Array.init rows.n (fun q -> rows.decided.(inv.(q)));
    triples =
      Array.map
        (fun t ->
          pack_triple perm.(triple_src t) perm.(triple_dst t)
            (triple_payload t))
        rows.triples;
  }

let canonicalize rows =
  let retained =
    Array.of_list
      (List.filter
         (fun t -> rows.crashed land (1 lsl triple_dst t) = 0)
         (Array.to_list rows.triples))
  in
  Array.sort (fun (a : int) b -> compare a b) retained;
  let movable_pids = movable rows in
  let is_movable =
    let m = List.fold_left (fun acc p -> acc lor (1 lsl p)) 0 movable_pids in
    fun p -> m land (1 lsl p) <> 0
  in
  let row_ids =
    Array.init rows.n (fun p ->
        if rows.crashed land (1 lsl p) <> 0 then -1 else rows.state_ids.(p))
  in
  let fixed_decided =
    List.filter_map
      (fun p ->
        match rows.decided.(p) with
        | Some v when not (is_movable p) -> Some (p, v)
        | Some _ | None -> None)
      (List.init rows.n Fun.id)
  in
  let movable_decided =
    List.sort compare
      (List.filter_map (fun p -> rows.decided.(p)) movable_pids)
  in
  (* witness: reorder the movable pids so their contents (decided
     value first, undecided last) land in sorted order over the
     movable slots taken in pid order.  [List.sort] is stable, so
     ties (all-undecided movables) leave the identity. *)
  let perm = Array.init rows.n Fun.id in
  let ranked =
    List.sort compare
      (List.map
         (fun p ->
           (( (match rows.decided.(p) with Some v -> (0, v) | None -> (1, 0)),
              p ),
            p))
         movable_pids)
  in
  List.iter2
    (fun slot (_, p) -> perm.(p) <- slot)
    movable_pids ranked;
  { retained; row_ids; fixed_decided; movable_decided; movable_pids; perm }

let canonical_equal a b =
  a.retained = b.retained && a.row_ids = b.row_ids
  && a.fixed_decided = b.fixed_decided
  && a.movable_decided = b.movable_decided
  && a.movable_pids = b.movable_pids

(* The reference writer of the canonical core (the reduced key body).
   It shares nothing with {!key}'s writer — a Buffer, its own zigzag
   and varint arithmetic, a library sort — so the test suite's
   equality of the two compares independent encoders of one
   layout. *)
let add_int buf i =
  let rec varint z =
    if z lsr 7 = 0 then Buffer.add_char buf (Char.chr z)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (z land 0x7f)));
      varint (z lsr 7)
    end
  in
  varint (if i >= 0 then 2 * i else (-2 * i) - 1)

let serialize ~crashed c =
  let n = Array.length c.row_ids in
  (* tag; crashed; row ids; |fixed|; (pid, value) pairs; |movable
     values|; values; |retained|; retained triples, each re-packed as
     (payload * n + src) * n + dst and sorted.  The -1 tag keeps
     reduced keys disjoint from unreduced ones, whose first int is a
     non-negative crashed mask. *)
  let small =
    Array.map
      (fun t -> (((triple_payload t * n) + triple_src t) * n) + triple_dst t)
      c.retained
  in
  Array.sort compare small;
  let buf = Buffer.create 32 in
  let add = add_int buf in
  add (-1);
  add crashed;
  Array.iter add c.row_ids;
  add (List.length c.fixed_decided);
  List.iter
    (fun (p, v) ->
      add p;
      add v)
    c.fixed_decided;
  add (List.length c.movable_decided);
  List.iter add c.movable_decided;
  add (Array.length small);
  Array.iter add small;
  Buffer.contents buf

(* ---- dedup keys ----

   [write_key] is the only production key builder.  It reads the
   pending triples from the domain's scratch int array, where the
   engine (or {!key}, from a [rows]) put them in the slots
   [n, n + m), and writes the varints into the domain's scratch buffer,
   sorting the two slices that need it (movable values in the slots
   [0, n), pending triples in place) on the way.  It allocates
   nothing: the key stays in the buffer, to be probed there and copied
   out only when kept.  Pending triples enter the sequence re-packed as
   the small int [(payload * n + src) * n + dst] (the engine's wide
   packing would take eight bytes or more each), so the triple slice
   sorts by payload first.

   Both layouts are prefix-free for a fixed [n]: every variable-length
   slice follows its count.  The exact key's first int, a crashed mask,
   zigzags to an even value, so its first byte is even; the orbit
   key's tag -1 zigzags to 1, so the two layouts never share a first
   byte.  The orbit layout is
   [serialize ~crashed (canonicalize rows)] byte for byte (the qcheck
   suite compares the two); checkpoints store both, so neither may
   drift without a checkpoint version bump. *)

let triple_slots ~n ~m =
  let s = Domain.DLS.get scratch in
  if Array.length s.ints < n + m then
    s.ints <- Array.make (max (n + m) (2 * Array.length s.ints)) 0;
  s.ints

let[@inline] small_triple n t =
  (((triple_payload t * n) + triple_src t) * n) + triple_dst t

(* the sorted slice [a.(lo) .. a.(hi - 1)], from [pos] *)
let put_sorted b pos a lo hi =
  sort_slots a lo hi;
  let pos = ref pos in
  for j = lo to hi - 1 do
    pos := put b !pos a.(j)
  done;
  !pos

(* crashed mask; per-pid state ids; |decided|; (pid, value) pairs;
   |pending|; sorted triples *)
let exact_key ~value ~n ~crashed ~state_ids ~decided ~m =
  let s = Domain.DLS.get scratch in
  let b = buf_for s ~len:(3 + (3 * n) + m) and a = s.ints in
  let pos = ref (put b 0 crashed) in
  let d = ref 0 in
  for p = 0 to n - 1 do
    pos := put b !pos state_ids.(p);
    match decided.(p) with Some _ -> incr d | None -> ()
  done;
  pos := put b !pos !d;
  for p = 0 to n - 1 do
    match decided.(p) with
    | Some x ->
        pos := put b !pos p;
        pos := put b !pos (value x)
    | None -> ()
  done;
  pos := put b !pos m;
  for j = n to n + m - 1 do
    a.(j) <- small_triple n a.(j)
  done;
  put_sorted b !pos a n (n + m)

(* the layout {!serialize} gives {!canonicalize}'s core *)
let orbit_key ~value ~n ~crashed ~state_ids ~decided ~m =
  let s = Domain.DLS.get scratch in
  let b = buf_for s ~len:(5 + (3 * n) + m) and a = s.ints in
  let src_mask = ref 0 in
  for j = n to n + m - 1 do
    let t = a.(j) in
    if crashed land (1 lsl triple_dst t) = 0 then
      src_mask := !src_mask lor (1 lsl triple_src t)
  done;
  (* the {!movable} pids, as a mask *)
  let movable = crashed land lnot !src_mask in
  let pos = ref (put b 0 (-1)) in
  pos := put b !pos crashed;
  let nf = ref 0 in
  for p = 0 to n - 1 do
    pos :=
      put b !pos (if crashed land (1 lsl p) <> 0 then -1 else state_ids.(p));
    match decided.(p) with
    | Some _ when movable land (1 lsl p) = 0 -> incr nf
    | Some _ | None -> ()
  done;
  pos := put b !pos !nf;
  (* the movable values go to [a.(0 .. n - 1)] to be sorted *)
  let nm = ref 0 in
  for p = 0 to n - 1 do
    match decided.(p) with
    | Some x when movable land (1 lsl p) = 0 ->
        pos := put b !pos p;
        pos := put b !pos (value x)
    | Some x ->
        a.(!nm) <- value x;
        incr nm
    | None -> ()
  done;
  pos := put b !pos !nm;
  pos := put_sorted b !pos a 0 !nm;
  (* the retained triples, compacted in place *)
  let nt = ref n in
  for j = n to n + m - 1 do
    let t = a.(j) in
    if crashed land (1 lsl triple_dst t) = 0 then begin
      a.(!nt) <- small_triple n t;
      incr nt
    end
  done;
  pos := put b !pos (!nt - n);
  put_sorted b !pos a n !nt

let write_key ~reduction ~value ~n ~crashed ~state_ids ~decided ~m =
  match reduction with
  | No_reduction -> exact_key ~value ~n ~crashed ~state_ids ~decided ~m
  | Symmetry -> orbit_key ~value ~n ~crashed ~state_ids ~decided ~m

let key ~reduction ~value r =
  let n = r.n and m = Array.length r.triples in
  Array.blit r.triples 0 (triple_slots ~n ~m) n m;
  let len =
    write_key ~reduction ~value ~n ~crashed:r.crashed ~state_ids:r.state_ids
      ~decided:r.decided ~m
  in
  Bytes.sub_string (key_buffer ()) 0 len
