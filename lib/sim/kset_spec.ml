(* Both list checks walk the decisions in place (a value counts at its
   last occurrence), so a check on every explored node or fuzz trial
   allocates nothing unless it reports. *)
let rec decided_later v = function
  | [] -> false
  | (_, w, _) :: rest -> Value.equal v w || decided_later v rest

let rec distinct acc = function
  | [] -> acc
  | (_, v, _) :: rest -> distinct (if decided_later v rest then acc else acc + 1) rest

let k_agreement ~k decisions =
  let d = distinct 0 decisions in
  if d <= k then None else Some (Printf.sprintf "%d distinct decisions exceed k=%d" d k)

let rec proposed v inputs i =
  i < Array.length inputs && (Value.equal v inputs.(i) || proposed v inputs (i + 1))

let rec validity ~inputs = function
  | [] -> None
  | (_, v, _) :: rest ->
      if proposed v inputs 0 then validity ~inputs rest
      else Some (Format.asprintf "decided value %a was never proposed" Value.pp v)

let termination run =
  if Run.all_correct_decided run then None
  else
    Some (Printf.sprintf "correct process undecided after %d steps" (Run.step_count run))

let check ~k (run : Run.t) =
  match validity ~inputs:run.inputs run.decisions with
  | Some _ as v -> v
  | None -> (
      match k_agreement ~k run.decisions with
      | Some _ as a -> a
      | None -> termination run)
