(* Shared helpers for the test suite. *)

module Sim = Ksa_sim
module Rng = Ksa_prim.Rng

(* A tiny echo algorithm used to observe the engine's message
   plumbing: every process broadcasts one Ping, replies Pong to every
   Ping, and decides its own input once it has received at least one
   message of any kind (or immediately if [eager]). *)
module Echo = struct
  type message = Ping | Pong

  type state = {
    n : int;
    me : Sim.Pid.t;
    input : Sim.Value.t;
    started : bool;
    got : (Sim.Pid.t * message) list;
    decided : bool;
  }

  let name = "echo"
  let uses_fd = false

  let init ~n ~me ~input =
    { n; me; input; started = false; got = []; decided = false }

  let step st ~received ~fd =
    ignore fd;
    let st = { st with got = st.got @ received } in
    let pings =
      List.filter_map
        (fun (src, m) -> match m with Ping -> Some (src, Pong) | Pong -> None)
        received
    in
    let st, hello =
      if st.started then (st, [])
      else
        ( { st with started = true },
          List.filter_map
            (fun q -> if q = st.me then None else Some (q, Ping))
            (List.init st.n Fun.id) )
    in
    if (not st.decided) && st.got <> [] then
      ({ st with decided = true }, hello @ pings, Some st.input)
    else (st, hello @ pings, None)

  let canon (st : state) = st
  let canon_message (m : message) = m
  let forge_pool ~n:_ ~values:_ = [ Ping; Pong ]

  let pp_message ppf = function
    | Ping -> Format.pp_print_string ppf "ping"
    | Pong -> Format.pp_print_string ppf "pong"

  let pp_state ppf st = Format.fprintf ppf "{%a}" Sim.Pid.pp st.me
end

module Echo_engine = Sim.Engine.Make (Echo)

let check_ok what = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

let check_err what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error _ -> ()

let qsuite name props =
  (name, List.map QCheck_alcotest.to_alcotest props)

(* Words the calling domain's minor heap gains over [reps] calls of
   [f], less the words of an empty loop measured the same way: 0 when
   [f] allocates nothing.  [f] runs once first, so a buffer it grows
   on first use does not count. *)
let words_per_loop reps f =
  let measure g =
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      g ()
    done;
    Gc.minor_words () -. w0
  in
  f ();
  measure f -. measure ignore

(* The sorted set of values decided anywhere in a search whose [check]
   may run on several domains at once: [run ~check] runs the search
   (its outcome is ignored), and [check] records into a mutex-guarded
   accumulator. *)
let decision_values_par run =
  let lock = Mutex.create () in
  let seen = ref [] in
  let check decisions =
    Mutex.protect lock (fun () ->
        List.iter
          (fun (_, v, _) -> if not (List.mem v !seen) then seen := v :: !seen)
          decisions);
    None
  in
  ignore (run ~check);
  List.sort compare !seen

(* [explore ~check] run with a [check] that never objects and collects
   the (pid, value) decision sets of the configurations where every
   process of [correct] has decided: the outcome and the distinct
   sets, sorted.  Decision times are path-dependent (terminal
   configurations are deduplicated on content, not on the route taken)
   and are dropped.  [check] may run on several domains at once. *)
let terminal_sets ~correct explore =
  let seen = Hashtbl.create 64 and lock = Mutex.create () in
  let check ds =
    if List.for_all (fun p -> List.exists (fun (q, _, _) -> q = p) ds) correct
    then begin
      let set = List.map (fun (p, v, _) -> (p, v)) ds in
      Mutex.protect lock (fun () -> Hashtbl.replace seen set ())
    end;
    None
  in
  let outcome = explore ~check in
  (outcome, List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen)))

(* what [f] writes to stderr, with its result *)
let with_stderr f =
  let path = Filename.temp_file "ksa_err" ".err" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let err = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (r, err)
