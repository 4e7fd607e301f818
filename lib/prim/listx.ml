let range lo hi = List.init (max 0 (hi - lo)) (fun i -> lo + i)

let rec take k = function
  | [] -> []
  | x :: rest -> if k <= 0 then [] else x :: take (k - 1) rest

let rec drop k = function
  | [] -> []
  | _ :: rest as xs -> if k <= 0 then xs else drop (k - 1) rest

let chunks k xs =
  if k <= 0 then invalid_arg "Listx.chunks";
  let rec go = function
    | [] -> []
    | xs -> take k xs :: go (drop k xs)
  in
  go xs

let disjoint xs ys = not (List.exists (fun x -> List.mem x ys) xs)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let intersect xs ys =
  List.sort_uniq compare (List.filter (fun x -> List.mem x ys) xs)

let rec pairwise_disjoint = function
  | [] -> true
  | xs :: rest -> List.for_all (disjoint xs) rest && pairwise_disjoint rest

let rec combinations k xs =
  if k = 0 then [ [] ]
  else
    match xs with
    | [] -> []
    | x :: rest ->
        List.map (fun c -> x :: c) (combinations (k - 1) rest)
        @ combinations k rest
