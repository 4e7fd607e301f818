type process_sync = Async_processes | Sync_processes of int
type comm_sync = Async_comm | Sync_comm of int
type order = Unordered | Fifo
type transmission = Unicast | Broadcast
type atomicity = Separate | Atomic_receive_send
type fd_dim = No_fd | With_fd

type t = {
  processes : process_sync;
  communication : comm_sync;
  order : order;
  transmission : transmission;
  atomicity : atomicity;
  fd : fd_dim;
}

let masync =
  {
    processes = Async_processes;
    communication = Async_comm;
    order = Unordered;
    transmission = Broadcast;
    atomicity = Atomic_receive_send;
    fd = No_fd;
  }

let theorem2 ~n =
  {
    processes = Sync_processes n;
    communication = Async_comm;
    order = Unordered;
    transmission = Broadcast;
    atomicity = Atomic_receive_send;
    fd = No_fd;
  }

let strongest ~n ~delta =
  {
    processes = Sync_processes n;
    communication = Sync_comm delta;
    order = Fifo;
    transmission = Broadcast;
    atomicity = Atomic_receive_send;
    fd = No_fd;
  }

let pp_process ppf = function
  | Async_processes -> Format.pp_print_string ppf "procs:async"
  | Sync_processes phi -> Format.fprintf ppf "procs:sync(Φ=%d)" phi

let pp_comm ppf = function
  | Async_comm -> Format.pp_print_string ppf "comm:async"
  | Sync_comm d -> Format.fprintf ppf "comm:sync(Δ=%d)" d

let pp ppf t =
  Format.fprintf ppf "⟨%a %a %s %s %s %s⟩" pp_process t.processes pp_comm
    t.communication
    (match t.order with Unordered -> "unordered" | Fifo -> "fifo")
    (match t.transmission with Unicast -> "unicast" | Broadcast -> "broadcast")
    (match t.atomicity with
    | Separate -> "separate"
    | Atomic_receive_send -> "atomic")
    (match t.fd with No_fd -> "no-fd" | With_fd -> "fd")
