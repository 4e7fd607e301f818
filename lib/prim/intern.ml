(* An open-addressing table of immutable slots, kept at most half full
   so every probe sequence ends at an [Empty].  A slot is written once,
   [Empty] -> [Full], and never again; a resize copies the [Full]
   blocks into a fresh array and publishes it with one atomic store.

   Hits run without the mutex.  That is memory-safe and exact under the
   OCaml 5 memory model: filling a slot is one pointer write of a block
   whose fields were initialised before the write, and the runtime
   makes initialising writes visible to any domain that reads the
   pointer.  A racing reader therefore sees either [Empty] (it then
   retries under the mutex, against the latest table) or a complete
   entry, never a torn one; and an entry, once visible, never changes.
   A reader holding a table that a resize has replaced can only miss
   more, never answer wrongly.  Inserts, resizes, [dump] and [restore]
   all take the mutex, so ids are assigned in one total order. *)

type slot = Empty | Full of { h : int; v : Obj.t; id : int }

type t = {
  lock : Mutex.t;
  table : slot array Atomic.t;
  mutable size : int;
      (* written only under [lock]; the next id to assign *)
}

(* The runtime's maximum traversal (the limits are capped at 256), so
   the hash reaches the deep maps of a process state rather than only
   its first ten meaningful words.  It agrees with [compare _ _ = 0]:
   the runtime hash normalises -0.0 and every nan, which [compare]
   equates. *)
let hash v = Hashtbl.hash_param 256 256 v

let rec capacity n c = if c >= n then c else capacity n (2 * c)

let create ?name ?(size = 4096) () =
  let t =
    {
      lock = Mutex.create ();
      table = Atomic.make (Array.make (capacity size 2) Empty);
      size = 0;
    }
  in
  (match name with
  | Some name -> Metrics.probe (name ^ ".size") (fun () -> t.size)
  | None -> ());
  t

(* The slot index holding [r] (hash [h]) in [slots], or the [Empty]
   slot where it would go.  [compare] runs only on a full hash match;
   it is [compare], not [=], so a value holding nan equals itself. *)
let rec probe slots mask h r i =
  match slots.(i) with
  | Empty -> i
  | Full e when e.h = h && compare e.v r = 0 -> i
  | Full _ -> probe slots mask h r ((i + 1) land mask)

let find slots h r =
  let mask = Array.length slots - 1 in
  match slots.(probe slots mask h r (h land mask)) with
  | Full e -> e.id
  | Empty -> -1

let grow t =
  let old = Atomic.get t.table in
  let slots = Array.make (2 * Array.length old) Empty in
  let mask = Array.length slots - 1 in
  Array.iter
    (function
      | Empty -> ()
      | Full e as s -> slots.(probe slots mask e.h e.v (e.h land mask)) <- s)
    old;
  Atomic.set t.table slots

(* Under the mutex: [r] is absent from the latest table. *)
let insert t h r =
  if 2 * (t.size + 1) > Array.length (Atomic.get t.table) then grow t;
  let slots = Atomic.get t.table in
  let mask = Array.length slots - 1 in
  let id = t.size in
  slots.(probe slots mask h r (h land mask)) <- Full { h; v = r; id };
  t.size <- id + 1;
  id

let id t v =
  let r = Obj.repr v in
  let h = hash r in
  let id = find (Atomic.get t.table) h r in
  if id >= 0 then id
  else
    Mutex.protect t.lock (fun () ->
        let id = find (Atomic.get t.table) h r in
        if id >= 0 then id else insert t h r)

let count t = Mutex.protect t.lock (fun () -> t.size)

(* [size] only ever grows; a plain read of an immediate int observes
   some recent value, never a torn one — a monotone lower bound on the
   id count, which is all capacity hints need. *)
let watermark t = t.size

(* Checkpointing support.  Interned ids are embedded in engine
   configurations and dedup keys, so a campaign snapshot is only
   meaningful together with the id assignment that produced it.
   [dump] captures the assignment as an id-ordered array; [restore]
   re-establishes it, either into a fresh registry (cross-process
   resume: ids are re-assigned in dump order, reproducing them
   exactly) or into the registry that produced the dump (in-process
   resume: every value is already present under its dumped id).  Any
   other overlap means the checkpoint and this process interned
   values in different orders — ids in the snapshot would silently
   alias different values, so it is rejected. *)

let dump t =
  Mutex.protect t.lock (fun () ->
      let a = Array.make t.size (Obj.repr 0) in
      Array.iter
        (function Empty -> () | Full e -> a.(e.id) <- e.v)
        (Atomic.get t.table);
      a)

let restore t dumped =
  Mutex.protect t.lock (fun () ->
      let n = Array.length dumped in
      let rec go i =
        if i >= n then Ok ()
        else
          let v = dumped.(i) in
          let h = hash v in
          match find (Atomic.get t.table) h v with
          | id when id = i -> go (i + 1)
          | id when id >= 0 ->
              Error
                (Printf.sprintf
                   "interner mismatch: dumped id %d is live id %d" i id)
          | _ ->
              if t.size = i then (
                ignore (insert t h v);
                go (i + 1))
              else
                Error
                  (Printf.sprintf
                     "interner mismatch: cannot graft dumped id %d into a \
                      table of %d entries"
                     i t.size)
      in
      go 0)

let states = create ~name:"intern.states" ()
let payloads = create ~name:"intern.payloads" ()
