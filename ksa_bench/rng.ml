(* SplitMix64, owned by the benchmark.  Every generated input comes
   from here rather than from Ksa_prim.Rng, so a change to the
   library's generator cannot change what the benchmark feeds the
   program: two commits given the same seed receive byte-identical
   inputs. *)

type t = { mutable state : int64 }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A generator for one input slot, named by the workload seed and a
   path such as [pass; cell]: slots never share a stream, so adding a
   slot leaves every other slot's draw unchanged. *)
let derive seed path =
  let t = { state = Int64.of_int seed } in
  List.iter (fun x -> t.state <- Int64.logxor (next t) (Int64.of_int x)) path;
  t

let int t bound = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

(* [n] distinct values in [0, 10n), in draw order. *)
let distinct t n =
  let rec go acc k =
    if k = n then Array.of_list (List.rev acc)
    else
      let v = int t (10 * n) in
      if List.mem v acc then go acc k else go (v :: acc) (k + 1)
  in
  go [] 0

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a
