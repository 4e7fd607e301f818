type t = { size : int; crash : int option array }

let none ~n = { size = n; crash = Array.make n None }

let of_crash_times ~n assoc =
  let crash = Array.make n None in
  List.iter
    (fun (p, t) ->
      if not (Pid.valid ~n p) then invalid_arg "Failure_pattern: invalid pid";
      if t < 0 then invalid_arg "Failure_pattern: negative crash time";
      if crash.(p) <> None then invalid_arg "Failure_pattern: duplicate pid";
      crash.(p) <- Some t)
    assoc;
  { size = n; crash }

let initial_dead ~n ~dead = of_crash_times ~n (List.map (fun p -> (p, 0)) dead)

let n t = t.size

let crash_time t p =
  if not (Pid.valid ~n:t.size p) then invalid_arg "Failure_pattern.crash_time";
  t.crash.(p)

let is_faulty t p = crash_time t p <> None

let faulty t =
  List.filter (fun p -> is_faulty t p) (Pid.universe t.size)

let correct t =
  List.filter (fun p -> not (is_faulty t p)) (Pid.universe t.size)

let is_crashed t p ~time =
  match crash_time t p with Some ct -> ct <= time | None -> false

let restrict_to t inside =
  let crash =
    Array.mapi
      (fun p ct -> if List.mem p inside then ct else Some 0)
      t.crash
  in
  { size = t.size; crash }

let merge ~inside fa fb =
  if fa.size <> fb.size then invalid_arg "Failure_pattern.merge: size mismatch";
  let crash =
    Array.init fa.size (fun p ->
        if List.mem p inside then fa.crash.(p) else fb.crash.(p))
  in
  { size = fa.size; crash }

let equal a b = a.size = b.size && a.crash = b.crash

let pp ppf t =
  let pp_one ppf p =
    match t.crash.(p) with
    | None -> Format.fprintf ppf "%a:ok" Pid.pp p
    | Some ct -> Format.fprintf ppf "%a:†%d" Pid.pp p ct
  in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") pp_one)
    (Pid.universe t.size)
