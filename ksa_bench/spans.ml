(* Spans recorded by the benchmark around its own calls into the
   program's layers, kept in memory and written out when the run ends.
   A span names its layer boundary, its start and end (monotonic ns),
   the span that caused it, and the trace it belongs to (one cell,
   hunt or job).  Recording is off in untraced runs. *)

module J = Ksa_svc.Json

let on = ref false
let buf : J.t list ref = ref []
let next = ref 0

let fresh () =
  incr next;
  !next

let obj ~id ~parent ~trace name start_ns end_ns =
  J.Obj
    [
      ("id", id);
      ("parent", parent);
      ("name", J.Str name);
      ("trace", J.Str trace);
      ("start_ns", J.Int start_ns);
      ("end_ns", J.Int end_ns);
    ]

let record ?parent ~id ~trace name start_ns end_ns =
  if !on then
    let parent = match parent with Some p -> J.Int p | None -> J.Null in
    buf := obj ~id:(J.Int id) ~parent ~trace name start_ns end_ns :: !buf

let add ?parent ~trace name start_ns end_ns =
  record ?parent ~id:(fresh ()) ~trace name start_ns end_ns

let dump () = J.List (List.rev !buf)

(* Children number their spans from 1; the parent makes ids unique
   across the run by prefixing the child's tag. *)
let retag ~tag spans =
  let id v = match v with J.Int i -> J.Str (Printf.sprintf "%s.%d" tag i) | v -> v in
  List.map
    (fun s ->
      J.Obj
        (List.map
           (fun (k, v) -> if k = "id" || k = "parent" then (k, id v) else (k, v))
           (Proc.obj_fields s)))
    spans
