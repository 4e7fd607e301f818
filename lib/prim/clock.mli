(** Time sources, split by purpose.

    Deadlines, budgets and phase timers must use the monotonic clock:
    it cannot jump when NTP steps the wall clock, so a [--max-seconds]
    budget measured against it is always the duration the user asked
    for. *)

val now_ns : unit -> int
(** Monotonic nanoseconds since an arbitrary epoch (boot, typically).
    Only differences are meaningful; the value is never negative in
    practice and fits an OCaml [int] on 64-bit platforms for ~292
    years of uptime. *)

val elapsed_s : since:int -> float
(** Seconds elapsed since a previous {!now_ns} reading. *)
