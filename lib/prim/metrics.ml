(* Process-global instrument registry.  Registration (cold) takes a
   mutex; counting (hot) is sharded atomics only.  Shard count is a
   power of two so the domain-id fold is one [land]. *)

let shards = 8

type counter = int Atomic.t array
type gauge = int Atomic.t
type timer = { ns : counter; calls : counter }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Timer of timer
  | Probe of (unit -> int) ref

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let make_counter () = Array.init shards (fun _ -> Atomic.make 0)

(* [Domain.self] is a cheap TLS read; ids are assigned densely enough
   that folding them over a power-of-two shard count gives concurrent
   explorer domains distinct shards, so they never race on one
   atomic.  Nothing places the shards on distinct cache lines: each is
   a two-word [Atomic.t] block allocated next to the last, so
   neighbouring shards can share a line.  Padding each shard into a
   16-word block of its own measured no change (the n=4 t=2
   empty-or-all sym border cell at 2 domains: medians 0.478 s and
   0.483 s over 6 alternating runs). *)
let slot () = (Domain.self () :> int) land (shards - 1)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Timer _ -> "timer"
  | Probe _ -> "probe"

let register name make select =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some existing -> (
          match select existing with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %S is already a %s" name
                   (kind_name existing)))
      | None ->
          let i = make () in
          Hashtbl.add registry name i;
          match select i with Some v -> v | None -> assert false)

let counter name =
  register name
    (fun () -> Counter (make_counter ()))
    (function Counter c -> Some c | _ -> None)

let incr (c : counter) = Atomic.incr c.(slot ())
let add (c : counter) k = ignore (Atomic.fetch_and_add c.(slot ()) k)
let value (c : counter) = Array.fold_left (fun s a -> s + Atomic.get a) 0 c

let gauge name =
  register name
    (fun () -> Gauge (Atomic.make 0))
    (function Gauge g -> Some g | _ -> None)

let gauge_set (g : gauge) v = Atomic.set g v

let rec gauge_max (g : gauge) v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then gauge_max g v

let gauge_value (g : gauge) = Atomic.get g

let timer name =
  register name
    (fun () -> Timer { ns = make_counter (); calls = make_counter () })
    (function Timer t -> Some t | _ -> None)

(* monotonic, so phase timings cannot be bent by NTP steps *)
let now_ns = Clock.now_ns

let time t f =
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      add t.ns (now_ns () - t0);
      incr t.calls)
    f

let timer_ns t = value t.ns

let probe name f =
  ignore
    (register name
       (fun () -> Probe (ref f))
       (function
         | Probe r ->
             r := f;
             Some ()
         | _ -> None))

type snapshot = (string * int) list

let snapshot () =
  let rows =
    with_lock (fun () ->
        Hashtbl.fold
          (fun name i acc ->
            match i with
            | Counter c -> (name, value c) :: acc
            | Gauge g -> (name, gauge_value g) :: acc
            | Timer t ->
                (name ^ ".ns", timer_ns t)
                :: (name ^ ".calls", value t.calls)
                :: acc
            | Probe r -> (name, !r ()) :: acc)
          registry [])
  in
  List.sort compare rows

let delta ~before ~after =
  List.map
    (fun (name, v) ->
      let v0 = match List.assoc_opt name before with Some v0 -> v0 | None -> 0 in
      (name, v - v0))
    after

let to_json snap =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  let total = List.length snap in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "  %S: %d%s\n" name v (if i = total - 1 then "" else ",")))
    snap;
  Buffer.add_string b "}\n";
  Buffer.contents b

let write_json ~path snap = Durable.write_atomic ~path (to_json snap)

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | Counter c -> Array.iter (fun a -> Atomic.set a 0) c
          | Gauge g -> Atomic.set g 0
          | Timer { ns; calls } ->
              Array.iter (fun a -> Atomic.set a 0) ns;
              Array.iter (fun a -> Atomic.set a 0) calls
          | Probe _ -> ())
        registry)
