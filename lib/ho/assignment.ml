module Pid = Ksa_sim.Pid
module Rng = Ksa_prim.Rng
module Listx = Ksa_prim.Listx

type t = { n : int; ho : round:int -> me:Pid.t -> Pid.t list }

let make ~n f =
  let ho ~round ~me =
    List.sort_uniq compare (List.filter (Pid.valid ~n) (f ~round ~me))
  in
  { n; ho }

let complete ~n = make ~n (fun ~round:_ ~me:_ -> Pid.universe n)

let partitioned ~n ~groups ?until () =
  if not (Listx.pairwise_disjoint groups) then
    invalid_arg "Assignment.partitioned: overlapping groups";
  let group_of = Array.make n [] in
  List.iter (fun g -> List.iter (fun p -> group_of.(p) <- g) g) groups;
  let rest =
    List.filter (fun p -> group_of.(p) = []) (Pid.universe n)
  in
  List.iter (fun p -> group_of.(p) <- rest) rest;
  make ~n (fun ~round ~me ->
      match until with
      | Some u when round > u -> Pid.universe n
      | Some _ | None -> group_of.(me))

let crash_like ~n ~silent_from =
  make ~n (fun ~round ~me:_ ->
      List.filter
        (fun q ->
          match List.assoc_opt q silent_from with
          | Some r -> round < r
          | None -> true)
        (Pid.universe n))

let mobile ~n ~t ~seed =
  if t < 0 || t > n then invalid_arg "Assignment.mobile";
  make ~n (fun ~round ~me:_ ->
      let faulty = Ksa_sim.Fault_model.mobile_faulty ~seed ~n ~t ~round in
      List.filter (fun q -> not (List.mem q faulty)) (Pid.universe n))

let random ~rng ~n ~min_size ?(self_in = true) () =
  if min_size < 1 || min_size > n then invalid_arg "Assignment.random";
  let cache : (int * int, Pid.t list) Hashtbl.t = Hashtbl.create 64 in
  make ~n (fun ~round ~me ->
      match Hashtbl.find_opt cache (round, me) with
      | Some s -> s
      | None ->
          let size = min_size + Rng.int rng (n - min_size + 1) in
          let base = Rng.sample rng size (Pid.universe n) in
          let s = if self_in then me :: base else base in
          let s = List.sort_uniq compare s in
          Hashtbl.add cache (round, me) s;
          s)

let for_all_cells t ~horizon pred =
  let rec rounds r =
    r > horizon
    || (List.for_all (fun p -> pred ~round:r ~me:p (t.ho ~round:r ~me:p))
          (Pid.universe t.n)
       && rounds (r + 1))
  in
  rounds 1

let self_in t ~horizon =
  for_all_cells t ~horizon (fun ~round:_ ~me s -> List.mem me s)

let nonempty t ~horizon = for_all_cells t ~horizon (fun ~round:_ ~me:_ s -> s <> [])

let no_split t ~horizon =
  let rec rounds r =
    r > horizon
    ||
    let sets = List.map (fun p -> t.ho ~round:r ~me:p) (Pid.universe t.n) in
    List.for_all
      (fun s1 -> List.for_all (fun s2 -> not (Listx.disjoint s1 s2)) sets)
      sets
    && rounds (r + 1)
  in
  rounds 1

let majority t ~horizon =
  for_all_cells t ~horizon (fun ~round:_ ~me:_ s ->
      2 * List.length s > t.n)

let uniform_round t ~round =
  match Pid.universe t.n with
  | [] -> true
  | p0 :: rest ->
      let s0 = t.ho ~round ~me:p0 in
      List.for_all (fun p -> t.ho ~round ~me:p = s0) rest

let confined_to t ~groups ~horizon =
  let group_of = Array.make t.n [] in
  List.iter (fun g -> List.iter (fun p -> group_of.(p) <- g) g) groups;
  let rest = List.filter (fun p -> group_of.(p) = []) (Pid.universe t.n) in
  List.iter (fun p -> group_of.(p) <- rest) rest;
  for_all_cells t ~horizon (fun ~round:_ ~me s -> Listx.subset s group_of.(me))

let kernel t ~round =
  List.filter
    (fun q -> List.for_all (fun p -> List.mem q (t.ho ~round ~me:p)) (Pid.universe t.n))
    (Pid.universe t.n)
