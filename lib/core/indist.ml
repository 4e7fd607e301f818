module Run = Ksa_sim.Run
module Pid = Ksa_sim.Pid
module Trace = Ksa_sim.Trace

let for_process ra rb p = Trace.indistinguishable_for ra.Run.trace rb.Run.trace p

let for_all ra rb ds = List.for_all (for_process ra rb) ds

let compatible r' r ~d =
  List.for_all (fun alpha -> List.exists (fun beta -> for_all alpha beta d) r) r'
