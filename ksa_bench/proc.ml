(* Child processes, scratch directories and process-level readings. *)

module J = Ksa_svc.Json

let now_ns = Ksa_prim.Clock.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Peak resident set size of this process in KiB (VmHWM), 0 where
   /proc is unavailable. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0
            | line -> (
                try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb)
                with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
          in
          scan ())

(* The reference kernel: a fixed stretch of hashing, allocation and
   table work (about 20 ms on a calm 2-vCPU Xeon), timed in each
   child right before its campaign.  The machines this benchmark runs
   on change speed by up to 1.7x for seconds to minutes at a time, and
   this kernel slows down with them; dividing a duration by
   [reference_s () /. reference_nominal_s] rescales it to nominal
   machine speed.  It allocates like the campaigns do (over ten seeds
   of four workloads it tracked them at least as well as an
   allocation-free loop), which is also why it is only ever timed in a
   fresh child before its campaign, where the heap is small and owes
   nothing to the program under test (it read 27 ms beside an empty
   heap and 45 ms beside 30 MB of live data).  Never change this
   function or the constant: they define the unit every rescaled
   duration is reported in. *)
let reference_nominal_s = 0.02

let kernel_s () =
  let t0 = now_ns () in
  (* refilled rather than grown, so the kernel adds well under a
     megabyte to the peak RSS the benchmark reports *)
  let h = Hashtbl.create 1024 in
  for round = 0 to 14 do
    Hashtbl.reset h;
    for i = 0 to 4_000 do
      Hashtbl.replace h (string_of_int ((i * 7919) + round)) (i, [ i; i + 1 ])
    done
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h));
  seconds_since t0

(* The median of three runs on each of [domains] domains at once.
   One 20 ms reading is at the mercy of a burst shorter than the
   campaign it stands for; and a two-domain campaign slows down with
   whatever shares its cores, which a one-domain reading does not
   see. *)
let reference_s ?(domains = 1) () =
  let three () = List.nth (List.sort compare [ kernel_s (); kernel_s (); kernel_s () ]) 1 in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn three) in
  let mine = three () in
  List.fold_left (fun a d -> a +. Domain.join d) mine others /. float_of_int domains

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Start [exe args] with stdout sent to our stderr: the benchmark's
   own stdout carries only the report. *)
let spawn ~exe args =
  Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr
    Unix.stderr

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error ((Unix.ECHILD | Unix.ESRCH), _, _) -> false

(* Wait up to [timeout] seconds for [pid]; SIGKILL and reap it if it
   is still running then.  Returns whether it exited on its own. *)
let reap ~timeout pid =
  let t0 = now_ns () in
  let rec poll () =
    if not (alive pid) then true
    else if seconds_since t0 > timeout then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (waitpid pid) with Unix.Unix_error _ -> ());
      false
    end
    else begin
      Unix.sleepf 0.005;
      poll ()
    end
  in
  poll ()

let read_all ic =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match input ic chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
  in
  go ()

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

(* Run [exe args] to completion and parse the last line of its stdout
   as a JSON object — the protocol every benchmark child speaks. *)
let run_json ~exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_all ic) in
  match waitpid pid with
  | Unix.WEXITED 0 -> (
      match J.parse (last_line out) with
      | Ok j -> Ok j
      | Error e -> Error ("child output: " ^ e))
  | Unix.WEXITED c -> Error (Printf.sprintf "child exited %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Error (Printf.sprintf "child killed by signal %d" s)

(* ---------- JSON field access (missing or mistyped reads as 0) ---------- *)

let field k j = Option.value ~default:J.Null (J.mem k j)
let num k j = Option.value ~default:0. (J.get_float (field k j))
let int k j = Option.value ~default:0 (J.get_int (field k j))
let str k j = Option.value ~default:"" (J.get_string (field k j))
let nums k j = List.filter_map J.get_float (Option.value ~default:[] (J.get_list (field k j)))

let obj_fields j = match j with J.Obj l -> l | _ -> []
