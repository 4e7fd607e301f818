let check_nf ~n ~f =
  if n < 1 || f < 0 || f >= n then invalid_arg "Border: need 0 <= f < n"

let theorem2_impossible ~n ~f ~k =
  check_nf ~n ~f;
  if k < 1 then invalid_arg "Border: k >= 1";
  (k * (n - f)) + 1 <= n

let max_impossible_k ~n ~f =
  check_nf ~n ~f;
  (n - 1) / (n - f)

let theorem8_solvable ~n ~f ~k =
  check_nf ~n ~f;
  if k < 1 then invalid_arg "Border: k >= 1";
  Ksa_algo.Kset_flp.solvable ~n ~f ~k

let min_solvable_k ~n ~f =
  check_nf ~n ~f;
  (f / (n - f)) + 1

let theorem8_initial_impossible ~n ~f ~k =
  check_nf ~n ~f;
  if k < 1 then invalid_arg "Border: k >= 1";
  k * (n - f) <= f

let theorem2_covers_initial_crash_impossibility ~n ~f =
  check_nf ~n ~f;
  let ks = List.init n (fun i -> i + 1) in
  List.for_all
    (fun k ->
      (not (theorem8_initial_impossible ~n ~f ~k))
      || theorem2_impossible ~n ~f ~k)
    ks

let bouzid_travers_impossible ~n ~k = k > 1 && 2 * k * k <= n

let theorem10_impossible ~n ~k = 2 <= k && k <= n - 2

let corollary13_solvable ~n ~k =
  if k < 1 || k > n - 1 then invalid_arg "Border: need 1 <= k <= n-1";
  k = 1 || k = n - 1

let theorem10_strictly_extends_bouzid_travers ~n =
  List.exists
    (fun k -> theorem10_impossible ~n ~k && not (bouzid_travers_impossible ~n ~k))
    (List.init (max n 1) (fun i -> i + 1))

let flp_consensus_impossible ~n_subsystem ~crashes =
  n_subsystem >= 2 && crashes >= 1

let theorem2_partition_sizes ~n ~f ~k =
  if k < 1 then invalid_arg "Border: k >= 1";
  check_nf ~n ~f;
  if not (theorem2_impossible ~n ~f ~k) then None
  else
    let l = n - f in
    let sizes = List.init (k - 1) (fun _ -> l) in
    Some (sizes, n - ((k - 1) * l))
