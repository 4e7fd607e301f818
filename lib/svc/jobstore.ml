(* Durable job records.  See jobstore.mli for the state machine. *)

module Durable = Ksa_prim.Durable

let magic = "KSAJOB01"
let version = 1

type state = Queued | Running | Done | Failed of int | Dead

type job = {
  id : int;
  spec : Task.spec;
  state : state;
  attempts : int;
  requeues : int;
  deadline : float option;
  retry_max : int;
  resumable : bool;
  result : Task.summary option;
  error : string option;
}

(* ---------- JSON codec ---------- *)

let state_to_json = function
  | Queued -> Json.Str "queued"
  | Running -> Json.Str "running"
  | Done -> Json.Str "done"
  | Failed n -> Json.Obj [ ("failed", Json.Int n) ]
  | Dead -> Json.Str "dead"

let state_of_json = function
  | Json.Str "queued" -> Ok Queued
  | Json.Str "running" -> Ok Running
  | Json.Str "done" -> Ok Done
  | Json.Str "dead" -> Ok Dead
  | Json.Obj [ ("failed", Json.Int n) ] -> Ok (Failed n)
  | _ -> Error "bad job state"

let job_to_json j =
  Json.Obj
    ([
       ("id", Json.Int j.id);
       ("spec", Task.spec_to_json j.spec);
       ("state", state_to_json j.state);
       ("attempts", Json.Int j.attempts);
       ("requeues", Json.Int j.requeues);
     ]
    @ (match j.deadline with
      | None -> []
      | Some d -> [ ("deadline", Json.Float d) ])
    @ [
        ("retry-max", Json.Int j.retry_max);
        ("resumable", Json.Bool j.resumable);
      ]
    @ (match j.result with
      | None -> []
      | Some s -> [ ("result", Task.summary_to_json s) ])
    @ match j.error with None -> [] | Some e -> [ ("error", Json.Str e) ])

let job_of_json j =
  let ( let* ) = Result.bind in
  let field k get =
    match Option.map get (Json.mem k j) with
    | Some (Some v) -> Ok v
    | _ -> Error (Printf.sprintf "job record: bad field %S" k)
  in
  let* id = field "id" Json.get_int in
  let* spec =
    match Json.mem "spec" j with
    | Some s -> Task.spec_of_json s
    | None -> Error "job record: missing spec"
  in
  let* state =
    match Json.mem "state" j with
    | Some s -> state_of_json s
    | None -> Error "job record: missing state"
  in
  let* attempts = field "attempts" Json.get_int in
  let* requeues = field "requeues" Json.get_int in
  let deadline = Option.bind (Json.mem "deadline" j) Json.get_float in
  let* retry_max = field "retry-max" Json.get_int in
  let* resumable = field "resumable" Json.get_bool in
  let* result =
    match Json.mem "result" j with
    | None -> Ok None
    | Some s ->
        let* s = Task.summary_of_json s in
        Ok (Some s)
  in
  let error = Option.bind (Json.mem "error" j) Json.get_string in
  Ok
    {
      id;
      spec;
      state;
      attempts;
      requeues;
      deadline;
      retry_max;
      resumable;
      result;
      error;
    }

(* ---------- the store ---------- *)

type t = {
  dir : string;
  lock : Mutex.t;
  tbl : (int, job) Hashtbl.t;
  mutable next_id : int;
}

let dir t = t.dir

let job_path ~dir id = Filename.concat dir (Printf.sprintf "job-%06d.ksaj" id)
let ckpt_path ~dir id = Filename.concat dir (Printf.sprintf "job-%06d.ckpt" id)

let write_job ~dir (j : job) =
  Durable.write_framed ~path:(job_path ~dir j.id) ~magic ~version
    (Json.to_string (job_to_json j))

let read_job ~path =
  match Durable.read_framed ~path ~magic with
  | Error _ as e -> e
  | Ok (v, _) when v <> version ->
      Error (Printf.sprintf "%s: unsupported job record version %d" path v)
  | Ok (_, payload) -> (
      match Json.parse payload with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok json -> (
          match job_of_json json with
          | Error e -> Error (Printf.sprintf "%s: %s" path e)
          | Ok _ as ok -> ok))

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let mkdir_p d =
  if not (Sys.file_exists d) then (
    (match Filename.dirname d with
    | parent when parent <> d && not (Sys.file_exists parent) ->
        (try Unix.mkdir parent 0o755 with Unix.Unix_error _ -> ())
    | _ -> ());
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let open_dir ~dir =
  match
    mkdir_p dir;
    Sys.readdir dir
  with
  | exception Sys_error e -> Error e
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | entries ->
      let t =
        { dir; lock = Mutex.create (); tbl = Hashtbl.create 64; next_id = 1 }
      in
      let adopt = ref [] in
      Array.sort compare entries;
      Array.iter
        (fun name ->
          let is_record =
            String.length name = String.length "job-000000.ksaj"
            && String.sub name 0 4 = "job-"
            && Filename.check_suffix name ".ksaj"
          in
          if is_record then
            match read_job ~path:(Filename.concat dir name) with
            | Error e ->
                (* a corrupt record must not block its siblings; .tmp
                   siblings of crashed writes are not even scanned.
                   Its id stays taken, so no new job overwrites it. *)
                Printf.eprintf "ksa: skipping unreadable job record: %s\n%!" e;
                Scanf.sscanf_opt name "job-%06d.ksaj" Fun.id
                |> Option.iter (fun id ->
                       if id >= t.next_id then t.next_id <- id + 1)
            | Ok j ->
                let j =
                  if j.state = Running then begin
                    (* orphan of a crashed daemon: its final state
                       transition never happened.  Adopt it as queued
                       and resumable — the checkpoint file, if the dead
                       daemon flushed one, carries the progress. *)
                    adopt := j.id :: !adopt;
                    { j with state = Queued; resumable = true }
                  end
                  else j
                in
                Hashtbl.replace t.tbl j.id j;
                if j.id >= t.next_id then t.next_id <- j.id + 1)
        entries;
      (* persist adoptions so a crash between here and the job's next
         transition does not re-orphan it into a double adoption *)
      let rec persist = function
        | [] -> Ok t
        | id :: rest -> (
            match write_job ~dir (Hashtbl.find t.tbl id) with
            | Ok () -> persist rest
            | Error _ as e -> e)
      in
      persist (List.rev !adopt)

let submit t ?deadline ?(retry_max = 3) spec =
  locked t (fun () ->
      let id = t.next_id in
      let j =
        {
          id;
          spec;
          state = Queued;
          attempts = 0;
          requeues = 0;
          deadline;
          retry_max;
          resumable = false;
          result = None;
          error = None;
        }
      in
      match write_job ~dir:t.dir j with
      | Error _ as e -> e
      | Ok () ->
          t.next_id <- id + 1;
          Hashtbl.replace t.tbl id j;
          Ok j)

let get t id = locked t (fun () -> Hashtbl.find_opt t.tbl id)

let list t =
  locked t (fun () ->
      Hashtbl.fold (fun _ j acc -> j :: acc) t.tbl []
      |> List.sort (fun a b -> compare a.id b.id))

let update t (j : job) =
  locked t (fun () ->
      match write_job ~dir:t.dir j with
      | Error _ as e -> e
      | Ok () ->
          Hashtbl.replace t.tbl j.id j;
          Ok ())
