external monotonic_ns : unit -> int64 = "ksa_clock_monotonic_ns"

let now_ns () = Int64.to_int (monotonic_ns ())
let elapsed_s ~since = float_of_int (now_ns () - since) *. 1e-9
