(* Order statistics for the report and for [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), the rule the benchmark's
   acceptance spread is computed with.  Needs two samples. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (nan, nan, nan)
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* The highest reported percentile that has at least ten samples
   beyond it; the median is always reported. *)
let supported_percentile n =
  List.fold_left
    (fun best p -> if float_of_int n *. (1. -. p) >= 10. then p else best)
    0.5 [ 0.9; 0.99; 0.999 ]
