type t = int

let compare = Int.compare
let equal = Int.equal
let pp ppf v = Format.fprintf ppf "%d" v
let distinct_inputs n = Array.init n Fun.id
