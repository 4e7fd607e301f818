(* Command-line entry points: run, compare, inputs, and the child
   units the parent re-runs this executable for.  See README.md. *)

module J = Ksa_svc.Json

let usage =
  {|usage:
  ksa_bench run [--workload NAME|all] [--seed S] [--runs R] [--seconds T]
                [--trace [0|1]] [--json FILE] [--profile full|smoke]
  ksa_bench compare PARENT.json CHANGE.json [--benchmark BENCHMARK.json]
  ksa_bench inputs --workload NAME [--seed S] [--seconds T] [--passes P]
                   [--profile full|smoke]
workloads: border-seq border-par2 explore-ckpt fuzz-hunt serve-sweep
|}

exception Usage of string

let is_flag a = String.length a > 2 && String.sub a 0 2 = "--"

(* "--name value" pairs; a flag followed by another flag, or by
   nothing, is a switch and reads as "1" *)
let parse args =
  let rec go flags pos = function
    | [] -> (flags, List.rev pos)
    | f :: v :: rest when is_flag f && not (is_flag v) -> go ((f, v) :: flags) pos rest
    | f :: rest when is_flag f -> go ((f, "1") :: flags) pos rest
    | a :: rest -> go flags (a :: pos) rest
  in
  go [] [] args

let get flags k = List.assoc_opt k flags

let int_of flags k default =
  match get flags k with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with Some i -> i | None -> raise (Usage (k ^ " " ^ v)))

let switch flags k = match get flags k with None | Some "0" -> false | Some _ -> true

let profile_of flags =
  match get flags "--profile" with
  | None | Some "full" -> Plan.Full
  | Some "smoke" -> Plan.Smoke
  | Some p -> raise (Usage ("--profile " ^ p))

let workload_of name =
  match Plan.of_name name with Some w -> w | None -> raise (Usage ("workload " ^ name))

let seconds_of flags profile =
  match get flags "--seconds" with
  | Some v -> (
      match float_of_string_opt v with Some s -> s | None -> raise (Usage ("--seconds " ^ v)))
  | None -> ( match profile with Plan.Full -> 15. | Plan.Smoke -> 0.)

(* ---------- run ---------- *)

(* The commit being measured, or "unknown" outside a git checkout. *)
let git_rev () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let r, w = Unix.pipe ~cloexec:true () in
  let spawned =
    try Ok (Unix.create_process "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] null w null)
    with Unix.Unix_error _ as e -> Error e
  in
  Unix.close w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match spawned with
      | Error _ -> "unknown"
      | Ok pid -> (
          let out = String.trim (Proc.read_all ic) in
          match Proc.waitpid pid with Unix.WEXITED 0 -> out | _ -> "unknown"))

let meta ~profile ~seconds =
  J.Obj
    [
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("git_rev", J.Str (git_rev ()));
      ("max_domains_per_child", J.Int 2);
      ("profile", J.Str (Workloads.profile_name profile));
      ("seconds", J.Float seconds);
    ]

let run ~exe flags =
  let profile = profile_of flags in
  let workloads =
    match get flags "--workload" with
    | None | Some "all" -> Plan.workloads
    | Some n -> [ workload_of n ]
  in
  let seed = int_of flags "--seed" 1 and runs = int_of flags "--runs" 1 in
  let seconds = seconds_of flags profile in
  let trace = switch flags "--trace" in
  let root = ".ksa_bench" in
  let work = Filename.concat root (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Proc.mkdir_p work;
  let results = ref [] and failed = ref false in
  Fun.protect
    ~finally:(fun () -> Proc.rm_rf work)
    (fun () ->
      for r = 0 to runs - 1 do
        List.iter
          (fun w ->
            let o =
              {
                Workloads.exe;
                profile;
                seed = seed + r;
                seconds;
                work;
                break_oracle = switch flags "--break-oracle";
              }
            in
            let title =
              Printf.sprintf "%s seed %d (%s, %gs%s)" (Plan.name w) o.seed
                (Workloads.profile_name profile) seconds
                (if trace then ", traced" else "")
            in
            let acc, metrics =
              if trace then begin
                let acc, overhead, replay = Workloads.traced o w in
                let path =
                  Filename.concat root (Printf.sprintf "spans-%s-%d.json" (Plan.name w) o.seed)
                in
                (match
                   Ksa_prim.Durable.write_atomic ~path
                     (J.to_string (J.List (List.rev acc.spans)))
                 with
                | Ok () -> Printf.printf "spans: %s (%d)\n" path (List.length acc.spans)
                | Error e -> prerr_endline ("ksa_bench: " ^ e));
                (acc, Report.per_layer acc ~overhead replay)
              end
              else
                let acc = Workloads.measure o w in
                (acc, Report.end_to_end acc)
            in
            Report.print_run ~title acc metrics;
            if acc.failed > 0 then failed := true;
            let line = Report.result_json acc metrics in
            results :=
              J.Obj
                (("workload", J.Str (Plan.name w))
                :: ("seed", J.Int o.seed)
                :: ("trace", J.Bool trace)
                :: Proc.obj_fields line)
              :: !results;
            print_endline (J.to_string line);
            flush stdout)
          workloads
      done;
      match get flags "--json" with
      | None -> ()
      | Some path -> (
          let body =
            J.Obj [ ("meta", meta ~profile ~seconds); ("runs", J.List (List.rev !results)) ]
          in
          match Ksa_prim.Durable.write_atomic ~path (J.to_string body) with
          | Ok () -> ()
          | Error e -> prerr_endline ("ksa_bench: " ^ e)));
  if !failed then 1 else 0

(* ---------- child units ---------- *)

let child flags unit =
  let profile = profile_of flags in
  let seed = int_of flags "--seed" 1 in
  let pass = int_of flags "--pass" 0 and index = int_of flags "--index" 0 in
  let work = Option.value ~default:"." (get flags "--work") in
  let workload () = workload_of (Option.value ~default:"" (get flags "--workload")) in
  let need k = match get flags k with Some v -> v | None -> raise (Usage ("missing " ^ k)) in
  Spans.on := switch flags "--trace";
  let fields =
    match unit with
    | "cell" -> Units.cell ~profile ~workload:(workload ()) ~seed ~pass ~index
    | "ckpt" -> Units.ckpt ~profile ~work ~seed ~pass ~index ~full:(switch flags "--full")
    | "hunt" -> Units.hunt ~profile ~seed ~pass ~index
    | "clean" -> Units.clean ~profile ~seed ~pass ~index ~coverage:(switch flags "--coverage")
    | "replay" -> Layers.replay ~profile ~workload:(workload ()) ~seed ~work
    | "serve" ->
        exit
          (Units.serve ~dir:(need "--dir") ~addr:(need "--addr") ~seed
             ~stats:(need "--stats"))
    | u -> raise (Usage ("unit " ^ u))
  in
  let t0 = int_of flags "--t0" !Units.ready_ns in
  print_endline
    (J.to_string
       (J.Obj
          (fields
          @ [
              ("setup_s", J.Float (float_of_int (!Units.ready_ns - t0) /. 1e9));
              ("scale", J.Float (!Units.ready_ref_s /. Proc.reference_nominal_s));
              ("rss_kb", J.Int (Proc.peak_rss_kb ()));
              ("spans", Spans.dump ());
              ("samples", Samples.to_json ());
            ])));
  0

let main ~exe argv =
  try
    match argv with
    | _ :: "run" :: rest -> run ~exe (fst (parse rest))
    | _ :: "compare" :: rest -> (
        match parse rest with
        | flags, [ parent; change ] ->
            Report.compare
              ~benchmark:(Option.value ~default:"BENCHMARK.json" (get flags "--benchmark"))
              ~parent ~change
        | _ -> raise (Usage "compare needs PARENT.json CHANGE.json"))
    | _ :: "inputs" :: rest ->
        let flags, _ = parse rest in
        let profile = profile_of flags in
        Plan.print_inputs stdout profile
          (workload_of (Option.value ~default:"" (get flags "--workload")))
          ~seed:(int_of flags "--seed" 1) ~seconds:(seconds_of flags profile)
          ~passes:(int_of flags "--passes" 2);
        0
    | _ :: "child" :: unit :: rest -> child (fst (parse rest)) unit
    | _ -> raise (Usage "no command")
  with
  | Usage why ->
      prerr_string usage;
      prerr_endline ("ksa_bench: " ^ why);
      2
  | Failure e | Sys_error e ->
      prerr_endline ("ksa_bench: " ^ e);
      2
