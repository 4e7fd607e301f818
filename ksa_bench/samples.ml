(* Named sample streams a child hands back to the parent (durations
   in ns, mostly).  A stream keeps at most [cap] values: when full it
   drops every other kept value and doubles its stride, so what
   remains is an even, order-preserving subsample of the whole
   stream — percentiles stay honest while a 134k-expansion cell still
   fits in one line of JSON. *)

module J = Ksa_svc.Json

type t = {
  mutable data : int array;
  mutable len : int;
  mutable stride : int;
  mutable skip : int;
}

let cap = 16_384
let streams : (string, t) Hashtbl.t = Hashtbl.create 8

let push name v =
  let s =
    match Hashtbl.find_opt streams name with
    | Some s -> s
    | None ->
        let s = { data = Array.make cap 0; len = 0; stride = 1; skip = 0 } in
        Hashtbl.replace streams name s;
        s
  in
  if s.skip > 0 then s.skip <- s.skip - 1
  else begin
    if s.len = cap then begin
      for i = 0 to (cap / 2) - 1 do
        s.data.(i) <- s.data.(2 * i)
      done;
      s.len <- cap / 2;
      s.stride <- 2 * s.stride
    end;
    s.data.(s.len) <- v;
    s.len <- s.len + 1;
    s.skip <- s.stride - 1
  end

let to_json () =
  J.Obj
    (Hashtbl.fold
       (fun name s acc ->
         (name, J.List (List.init s.len (fun i -> J.Int s.data.(i)))) :: acc)
       streams [])
