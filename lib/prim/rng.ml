(* The 64-bit state lives unboxed in an 8-byte [Bytes], read and
   written with the native-endian primitives: a draw keeps every
   intermediate [int64] in registers and allocates nothing, where a
   [mutable int64] field boxed a fresh state on every draw.  The byte
   order never escapes, so the stream is the same on any host. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let split t = of_state (mix (next64 t))

let split_at t i =
  if i < 0 then invalid_arg "Rng.split_at: negative index";
  let s = Int64.add (get64 t 0) (Int64.mul golden_gamma (Int64.of_int (i + 1))) in
  of_state (mix (mix s))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: nonpositive bound";
  let mask = Int64.shift_right_logical (next64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let bool t = Int64.logand (next64 t) 1L = 1L

let float t =
  let bits = Int64.shift_right_logical (next64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t xs =
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let sample t k xs =
  let len = List.length xs in
  if k < 0 || k > len then invalid_arg "Rng.sample";
  let shuffled = shuffle t xs in
  List.filteri (fun i _ -> i < k) shuffled
