type step = { state_id : int; decision : Value.t option }
type t = { init_ids : int array; steps : step array array }

let n t = Array.length t.init_ids

let make ~init_ids ~steps =
  if Array.length steps <> Array.length init_ids then
    invalid_arg "Trace.make: steps length";
  {
    init_ids = Array.copy init_ids;
    steps = Array.map Array.of_list steps;
  }

let empty ~init_ids =
  {
    init_ids = Array.copy init_ids;
    steps = Array.make (Array.length init_ids) [||];
  }

let decision_index t p =
  let row = t.steps.(p) in
  let rec find i =
    if i >= Array.length row then None
    else if row.(i).decision <> None then Some i
    else find (i + 1)
  in
  find 0

let decided t p = decision_index t p <> None

(* number of entries of [steps.(p)] that count as "until decision" *)
let compare_length t p =
  match decision_index t p with
  | Some i -> i + 1
  | None -> Array.length t.steps.(p)

let states_until_decision t p =
  let row = t.steps.(p) in
  let len = compare_length t p in
  t.init_ids.(p) :: List.init len (fun i -> row.(i).state_id)

let prefix_equal ra rb len =
  let rec go i = i >= len || (ra.(i).state_id = rb.(i).state_id && go (i + 1)) in
  go 0

let indistinguishable_for a b p =
  let ra = a.steps.(p) and rb = b.steps.(p) in
  let la = compare_length a p and lb = compare_length b p in
  a.init_ids.(p) = b.init_ids.(p)
  &&
  match (decided a p, decided b p) with
  | true, true -> la = lb && prefix_equal ra rb la
  | true, false -> lb >= la && prefix_equal ra rb la
  | false, true -> la >= lb && prefix_equal ra rb lb
  | false, false -> prefix_equal ra rb (min la lb)

let equal a b = a.init_ids = b.init_ids && a.steps = b.steps

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun p row ->
      Format.fprintf ppf "p%d: %d" p t.init_ids.(p);
      Array.iter
        (fun s ->
          Format.fprintf ppf " %d" s.state_id;
          match s.decision with
          | Some v -> Format.fprintf ppf "!%a" Value.pp v
          | None -> ())
        row;
      if p < Array.length t.steps - 1 then Format.fprintf ppf "@ ")
    t.steps;
  Format.fprintf ppf "@]"
