(* The campaign daemon event loop.  See daemon.mli for the contract. *)

module Backoff = Ksa_prim.Backoff
module Rng = Ksa_prim.Rng
module Clock = Ksa_prim.Clock
module Metrics = Ksa_prim.Metrics
module Checkpoint = Ksa_sim.Checkpoint

type cfg = {
  dir : string;
  addr : string option;
  retry : Backoff.policy;
  retry_max : int;
  seed : int;
  deadline : float option;
  domains : int;
  exit_when_idle : bool;
  ckpt_policy : Checkpoint.policy;
  verbose : bool;
}

let default_cfg ~dir =
  {
    dir;
    addr = None;
    retry = Backoff.default_retry;
    retry_max = 3;
    seed = 1;
    deadline = None;
    domains = 1;
    exit_when_idle = false;
    ckpt_policy = Checkpoint.default_policy;
    verbose = false;
  }

let m_submitted = Metrics.counter "svc.jobs.submitted"
let m_done = Metrics.counter "svc.jobs.done"
let m_failed = Metrics.counter "svc.jobs.failed"
let m_retried = Metrics.counter "svc.jobs.retried"
let m_requeued = Metrics.counter "svc.jobs.requeued"
let m_dead = Metrics.counter "svc.jobs.dead"
let m_rejected = Metrics.counter "svc.resume.rejected"
let m_http = Metrics.counter "svc.http.requests"

type running = {
  r_id : int;
  r_cancel : bool Atomic.t;
  r_deadline_hit : bool Atomic.t;
  r_interrupt_seen : bool Atomic.t;
  r_done : bool Atomic.t;
  r_domain : (Task.outcome, string) result Domain.t;
}

type st = {
  cfg : cfg;
  store : Jobstore.t;
  drain : bool Atomic.t;
  mutable running : running option;
  not_before : (int, int) Hashtbl.t;  (* job id -> Clock.now_ns threshold *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
      (* a self-pipe: a job domain writes one byte when it finishes,
         so the loop's [select] wakes to start the next job at once *)
}

let log st fmt =
  Printf.ksprintf
    (fun m -> if st.cfg.verbose then Printf.eprintf "ksa-serve: %s\n%!" m)
    fmt

(* store write failures are reported, never raised: the daemon's job
   is to keep the queue moving even when one record write trips *)
let upd st j =
  match Jobstore.update st.store j with
  | Ok () -> ()
  | Error e -> Printf.eprintf "ksa-serve: job %d: %s\n%!" j.Jobstore.id e

(* ---------- execution ---------- *)

let wake_byte = Bytes.make 1 'w'

let start_job st (j : Jobstore.job) =
  let cancel = Atomic.make false in
  let deadline_hit = Atomic.make false in
  let interrupt_seen = Atomic.make false in
  let r_done = Atomic.make false in
  let started = Clock.now_ns () in
  let deadline = j.Jobstore.deadline in
  let drain = st.drain in
  let interrupt () =
    let v =
      Atomic.get drain || Atomic.get cancel
      ||
      match deadline with
      | Some d when Clock.elapsed_s ~since:started > d ->
          Atomic.set deadline_hit true;
          true
      | _ -> false
    in
    (* latch what the driver observed: a job that finished before any
       poll returned true completed normally, drain or not *)
    if v then Atomic.set interrupt_seen true;
    v
  in
  let cpath = Jobstore.ckpt_path ~dir:st.cfg.dir j.Jobstore.id in
  let c =
    Task.open_campaign ~checkpoint:cpath ~policy:st.cfg.ckpt_policy
      ?resume:
        (if j.Jobstore.resumable && Sys.file_exists cpath then Some cpath
         else None)
      ~interrupt j.Jobstore.spec
  in
  (* the daemon is always strict: a rejected checkpoint is counted and
     recorded on the job, and the attempt reruns from scratch — never
     a silent divergence *)
  let error =
    match c.Task.rejected with
    | Some e ->
        Metrics.incr m_rejected;
        Some ("resume rejected: " ^ e)
    | None -> j.Jobstore.error
  in
  let j = { j with Jobstore.state = Jobstore.Running; error } in
  upd st j;
  log st "job %d: running (attempt %d%s)" j.Jobstore.id j.Jobstore.attempts
    (if c.Task.payload <> None then ", resumed" else "");
  let attempt = j.Jobstore.attempts in
  let dom =
    Domain.spawn (fun () ->
        let res =
          try
            Task.run ~attempt ~domains:st.cfg.domains ~ckpt:c.Task.ckpt
              ?resume:c.Task.payload j.Jobstore.spec
          with e -> Error ("uncaught: " ^ Printexc.to_string e)
        in
        Atomic.set r_done true;
        (* a full pipe already holds a wake-up *)
        (try ignore (Unix.single_write st.wake_w wake_byte 0 1 : int)
         with Unix.Unix_error _ -> ());
        res)
  in
  st.running <-
    Some
      {
        r_id = j.Jobstore.id;
        r_cancel = cancel;
        r_deadline_hit = deadline_hit;
        r_interrupt_seen = interrupt_seen;
        r_done;
        r_domain = dom;
      }

let finalize st r =
  let res = Domain.join r.r_domain in
  st.running <- None;
  match Jobstore.get st.store r.r_id with
  | None -> ()
  | Some j -> (
      let cpath = Jobstore.ckpt_path ~dir:st.cfg.dir j.Jobstore.id in
      let has_ckpt = Sys.file_exists cpath in
      if Atomic.get r.r_cancel then begin
        Metrics.incr m_dead;
        log st "job %d: cancelled" j.Jobstore.id;
        upd st
          { j with Jobstore.state = Jobstore.Dead; error = Some "cancelled" }
      end
      else
        match res with
        | Ok _ when Atomic.get r.r_interrupt_seen ->
            (* a deadline or a drain: the driver flushed a final
               checkpoint on the way out, so requeue with the progress
               (a drained job is picked up on restart), don't discard
               it *)
            Metrics.incr m_requeued;
            log st "job %d: %s, requeued resumable" j.Jobstore.id
              (if Atomic.get r.r_deadline_hit then "deadline expired"
               else "drained");
            upd st
              {
                j with
                Jobstore.state = Jobstore.Queued;
                requeues = j.Jobstore.requeues + 1;
                resumable = has_ckpt;
              }
        | Ok outcome ->
            let s = Task.summarize outcome in
            Metrics.incr m_done;
            log st "job %d: done (%s)" j.Jobstore.id s.Task.verdict;
            upd st
              {
                j with
                Jobstore.state = Jobstore.Done;
                attempts = j.Jobstore.attempts + 1;
                result = Some s;
                error = None;
                resumable = false;
              }
        | Error e ->
            let attempts = j.Jobstore.attempts + 1 in
            Metrics.incr m_failed;
            if attempts > j.Jobstore.retry_max then begin
              Metrics.incr m_dead;
              log st "job %d: dead after %d attempts: %s" j.Jobstore.id
                attempts e;
              upd st
                {
                  j with
                  Jobstore.state = Jobstore.Dead;
                  attempts;
                  error = Some e;
                  resumable = has_ckpt;
                }
            end
            else begin
              (* capped exponential backoff with deterministic jitter:
                 the rng is a pure function of (daemon seed, job,
                 attempt), so the retry schedule is reproducible *)
              let rng =
                Rng.create
                  ~seed:
                    (st.cfg.seed
                    + (j.Jobstore.id * 1_000_003)
                    + (attempts * 7_919))
              in
              let delay =
                Backoff.delay ~rng st.cfg.retry ~attempt:(attempts - 1)
              in
              Metrics.incr m_retried;
              Hashtbl.replace st.not_before j.Jobstore.id
                (Clock.now_ns () + int_of_float (delay *. 1e9));
              log st "job %d: attempt %d failed (%s); retry in %.2fs"
                j.Jobstore.id attempts e delay;
              upd st
                {
                  j with
                  Jobstore.state = Jobstore.Failed attempts;
                  attempts;
                  error = Some e;
                  resumable = has_ckpt;
                }
            end)

(* ---------- scheduling ---------- *)

let eligible st now (j : Jobstore.job) =
  match j.Jobstore.state with
  | Jobstore.Queued -> true
  | Jobstore.Failed _ -> (
      match Hashtbl.find_opt st.not_before j.Jobstore.id with
      | Some t -> now >= t
      | None -> true (* restart: in-memory schedule is gone, retry now *))
  | _ -> false

let next_runnable st =
  let now = Clock.now_ns () in
  List.find_opt (eligible st now) (Jobstore.list st.store)

let pending st =
  List.exists
    (fun (j : Jobstore.job) ->
      match j.Jobstore.state with
      | Jobstore.Queued | Jobstore.Failed _ -> true
      | _ -> false)
    (Jobstore.list st.store)

(* ---------- HTTP API ---------- *)

let json_response status json =
  { Http.status; body = Json.to_string json }

let err_response status msg =
  json_response status (Json.Obj [ ("error", Json.Str msg) ])

let job_response status j = json_response status (Jobstore.job_to_json j)

let split_path p =
  String.split_on_char '/' p |> List.filter (fun s -> s <> "")

let health st =
  let count want =
    List.length
      (List.filter
         (fun (j : Jobstore.job) -> want j.Jobstore.state)
         (Jobstore.list st.store))
  in
  json_response 200
    (Json.Obj
       [
         ("ok", Json.Bool true);
         ("draining", Json.Bool (Atomic.get st.drain));
         ( "running",
           match st.running with
           | Some r -> Json.Int r.r_id
           | None -> Json.Null );
         ( "jobs",
           Json.Obj
             [
               ("queued", Json.Int (count (( = ) Jobstore.Queued)));
               ("running", Json.Int (count (( = ) Jobstore.Running)));
               ("done", Json.Int (count (( = ) Jobstore.Done)));
               ( "failed",
                 Json.Int
                   (count (function Jobstore.Failed _ -> true | _ -> false))
               );
               ("dead", Json.Int (count (( = ) Jobstore.Dead)));
             ] );
       ])

let submit st body =
  match Json.parse body with
  | Error e -> err_response 400 e
  | Ok json -> (
      match Json.mem "spec" json with
      | None -> err_response 400 "missing \"spec\""
      | Some spec_json -> (
          match Task.spec_of_json spec_json with
          | Error e -> err_response 400 e
          | Ok spec -> (
              let deadline =
                match Option.bind (Json.mem "deadline" json) Json.get_float with
                | Some d -> Some d
                | None -> st.cfg.deadline
              in
              let retry_max =
                match Option.bind (Json.mem "retries" json) Json.get_int with
                | Some r -> r
                | None -> st.cfg.retry_max
              in
              match Jobstore.submit st.store ?deadline ~retry_max spec with
              | Error e -> err_response 500 e
              | Ok j ->
                  Metrics.incr m_submitted;
                  log st "job %d: submitted" j.Jobstore.id;
                  job_response 201 j)))

let cancel st id =
  match Jobstore.get st.store id with
  | None -> err_response 404 (Printf.sprintf "no job %d" id)
  | Some j -> (
      match (j.Jobstore.state, st.running) with
      | (Jobstore.Done | Jobstore.Dead), _ -> job_response 200 j
      | Jobstore.Running, Some r when r.r_id = id ->
          (* flip the interrupt; the state transition lands when the
             driver returns *)
          Atomic.set r.r_cancel true;
          job_response 202 j
      | (Jobstore.Running | Jobstore.Queued | Jobstore.Failed _), _ ->
          (* a Running record with no runner is a store/daemon
             disagreement, resolved the safe way: it dies now, and
             [svc.jobs.dead] counts only the queued and failed jobs *)
          let j' =
            { j with Jobstore.state = Jobstore.Dead; error = Some "cancelled" }
          in
          if j.Jobstore.state <> Jobstore.Running then Metrics.incr m_dead;
          upd st j';
          job_response 200 j')

let route st (req : Http.request) =
  Metrics.incr m_http;
  match (req.Http.meth, split_path req.Http.path) with
  | "GET", [ "health" ] -> health st
  | "GET", [ "jobs" ] ->
      json_response 200
        (Json.Obj
           [
             ( "jobs",
               Json.List (List.map Jobstore.job_to_json (Jobstore.list st.store))
             );
           ])
  | "POST", [ "jobs" ] -> submit st req.Http.body
  | "GET", [ "jobs"; id ] -> (
      match int_of_string_opt id with
      | None -> err_response 400 "bad job id"
      | Some id -> (
          match Jobstore.get st.store id with
          | Some j -> job_response 200 j
          | None -> err_response 404 (Printf.sprintf "no job %d" id)))
  | "DELETE", [ "jobs"; id ] -> (
      match int_of_string_opt id with
      | None -> err_response 400 "bad job id"
      | Some id -> cancel st id)
  | "POST", [ "drain" ] ->
      Atomic.set st.drain true;
      log st "drain requested";
      json_response 202
        (Json.Obj [ ("ok", Json.Bool true); ("draining", Json.Bool true) ])
  | _, _ -> err_response 404 "no such endpoint"

(* Serve one request on the listener [lfd]. *)
let http_step st lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* bound a stalled peer so it cannot freeze the loop *)
          (try
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
             Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
           with Unix.Unix_error _ -> ());
          match Http.read_request fd with
          | Error e -> Http.write_response fd (err_response 400 e)
          | Ok req -> Http.write_response fd (route st req))

(* Drain the self-pipe's wake-ups: the loop's next turn reads the
   state they announce. *)
let drain_wake st =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read st.wake_r buf 0 64 with
    | 64 -> go ()
    | _ | (exception Unix.Unix_error _) -> ()
  in
  go ()

(* Wait up to [timeout] for a job to finish or, with a listener
   [lfd], for a request, and serve the request. *)
let wait_step st lfd timeout =
  match Unix.select (st.wake_r :: Option.to_list lfd) [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ -> (
      if List.mem st.wake_r ready then drain_wake st;
      match lfd with
      | Some lfd when List.mem lfd ready -> http_step st lfd
      | Some _ | None -> ())

(* ---------- the loop ---------- *)

let install_signals st =
  let handler _ = Atomic.set st.drain true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle handler)
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigint (Sys.Signal_handle handler)
  with Invalid_argument _ | Sys_error _ -> ()

let wake_pipe () =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("self-pipe: " ^ Unix.error_message e)
  | r, w ->
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      Ok (r, w)

let serve cfg =
  let opened =
    Result.bind (Jobstore.open_dir ~dir:cfg.dir) (fun store ->
        Result.map (fun pipe -> (store, pipe)) (wake_pipe ()))
  in
  match opened with
  | Error e ->
      Printf.eprintf "ksa-serve: %s\n%!" e;
      1
  | Ok (store, (wake_r, wake_w)) -> (
      let st =
        {
          cfg;
          store;
          drain = Atomic.make false;
          running = None;
          not_before = Hashtbl.create 16;
          wake_r;
          wake_w;
        }
      in
      let close_wake () =
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          [ wake_r; wake_w ]
      in
      let listener =
        match cfg.addr with
        | None -> Ok None
        | Some addr -> (
            match Http.listen ~addr with
            | Ok fd -> Ok (Some fd)
            | Error e -> Error e)
      in
      match listener with
      | Error e ->
          Printf.eprintf "ksa-serve: %s\n%!" e;
          close_wake ();
          1
      | Ok lfd ->
          install_signals st;
          (match cfg.addr with
          | Some a -> log st "listening on %s, campaign dir %s" a cfg.dir
          | None -> log st "no listener, draining queue in %s" cfg.dir);
          let rec loop () =
            (match st.running with
            | Some r when Atomic.get r.r_done -> finalize st r
            | _ -> ());
            if Atomic.get st.drain && st.running = None then begin
              log st "drained; %d job(s) in store"
                (List.length (Jobstore.list st.store));
              0
            end
            else begin
              (if st.running = None && not (Atomic.get st.drain) then
                 match next_runnable st with
                 | Some j -> start_job st j
                 | None -> ());
              if cfg.exit_when_idle && st.running = None && not (pending st)
              then begin
                log st "queue idle; exiting";
                0
              end
              else begin
                (* a finished job wakes the wait at once; the timeout
                   paces retry backoffs and the drain flag *)
                wait_step st lfd (if lfd = None then 5e-3 else 0.02);
                loop ()
              end
            end
          in
          let code = loop () in
          close_wake ();
          (match lfd with
          | Some fd -> (
              (try Unix.close fd with Unix.Unix_error _ -> ());
              match cfg.addr with
              | Some a -> Http.addr_cleanup ~addr:a
              | None -> ())
          | None -> ());
          code)
