(** The message vocabulary (paper Sec. III-B), over both transports.

    Between the coordinator and each PE: the coordinator pushes work
    with [Schedule] (GUM's SCHEDULE message) and a PE answers each task
    with its [Result], which also asks for the PE's next task, as a
    result does in Eden's masterWorker.  A PE asks for nothing else:
    GUM's FISH would carry no information here.  [Harvest]/[Stats]
    drain the per-PE counters at shutdown, and on a traced run the
    PE's own slices, already {!Repro_trace.Chrome.span}s.

    Between neighbouring PEs: a running task's rows (apsp's pivots)
    travel around the PEs' ring, Eden's ring skeleton, one float
    message per row and edge ({!send_row}).  A PE sends its own rows
    to its right neighbour and forwards every row it receives from its
    left one, except to the PE that made it.  No cycle of blocked senders can
    form: a PE sends on its out-edge in increasing row number, sends
    its own row [k] only after receiving every row before [k], and
    never forwards a row back to its origin.  Say a PE is blocked
    sending row [k] to its right neighbour, which is blocked sending
    row [k'] in turn.  Row [k] has not reached the neighbour and is not
    the neighbour's own, so [k'] either came before [k] on the
    neighbour's in-edge or is the neighbour's own row, sent only once
    every row before it had arrived: [k' < k] either way.  Round a
    whole ring of blocked senders that would give [k < k].  That holds
    even when an edge buffers less than one row.

    Control payloads are [Marshal]-serialised {e fully-evaluated}
    values — Eden's rule that only whole normal forms cross the heap
    boundary.  Task and result payloads are pre-marshalled by the
    typed layer ({!Farm}) and travel here as opaque strings, so this
    module is monomorphic and every byte on the wire is accounted to
    the link's counters, marshalling time included.  Bulk floats
    bypass [Marshal] entirely: a float result and every ring row is one
    float message, whose header carries the two ints that name it
    ([task_id] and [round], or [k] and its origin), so every value a
    link carries is one message, as in Eden. *)

type mode =
  | Workload of { name : string; size : int }
      (** run tasks of the registered workload [name] *)
  | Closures  (** task payloads are marshalled [unit -> string] closures *)

(** First message on a fresh connection, coordinator to PE. *)
type hello = {
  pe : int;
  procs : int;
  mode : mode;
  trace : bool;  (** record per-task spans and ship them in [Stats] *)
}

type to_worker =
  | Schedule of { task_id : int; round : int; payload : string }
  | Harvest
  | Shutdown

type worker_stats = {
  stats_pe : int;
  tasks_executed : int;
  msgs_sent : int;  (** on the PE's link to the coordinator and its ring edges *)
  msgs_recv : int;
  bytes_sent : int;
  bytes_recv : int;
  packets_sent : int;
  packets_recv : int;
  payload_bytes_sent : int;
  payload_bytes_recv : int;
  zero_copy_bytes_sent : int;
  zero_copy_bytes_recv : int;
  pack_ns : int;
  unpack_ns : int;
  exec_ns : int;
      (** time inside [W.execute], summed, less the ring waits *)
  gc_minor_collections : int;  (** deltas over the PE's own private heap *)
  gc_major_collections : int;
  gc_minor_words : float;
  gc_promoted_words : float;
  spans : Repro_trace.Chrome.span list;
      (** when traced, each task's [unpack] (whose [task] arg is its id),
          [task], the [wait]s inside it and [pack] slices, on track [pe]
          in monotonic-clock nanoseconds (comparable with coordinator
          timestamps — see {!Clock}) *)
  spans_dropped : int;
  metrics : Repro_metrics.Metrics.snapshot;
      (** the PE's full registry snapshot, piggybacked on the Stats
          reply so the coordinator can hold a merged view of the
          whole farm (snapshots are plain data, Marshal-safe) *)
}

(** A result payload: marshalled bytes, or a float blob that travels
    (and on shm, crosses the rings) without [Marshal]. *)
type payload = Bytes_p of string | Floats_p of float array

type to_coordinator =
  | Ready
      (** the PE's session has started (over shm, every segment is
          mapped, so the files may be unlinked) *)
  | Result of { task_id : int; round : int; payload : payload }
  | Stats of worker_stats

(* ---------------- wire glue ---------------- *)

(* Marshal + send, with the serialisation time accounted to the link
   (the real-world analogue of the simulator's [pack_ns_per_byte]
   charge on the sending thread). *)
let send_value link v =
  let t0 = Clock.now_ns () in
  let s = Marshal.to_string v [] in
  let c = Link.counters link in
  c.Wire.pack_ns <- c.Wire.pack_ns + (Clock.now_ns () - t0);
  Link.send link s

(* Unmarshal a received byte message, timed to the link. *)
let unmarshal : type a. Link.t -> string -> a =
 fun link s ->
  let t0 = Clock.now_ns () in
  let v : a = Marshal.from_string s 0 in
  let c = Link.counters link in
  c.Wire.unpack_ns <- c.Wire.unpack_ns + (Clock.now_ns () - t0);
  v

let recv_value link =
  match Link.recv link with
  | Wire.Bytes_msg s -> unmarshal link s
  | Wire.Floats_msg _ ->
      Wire.raise_protocol "a float message where a control message was expected"

let send_hello link (h : hello) = send_value link h
let recv_hello link : hello = recv_value link
let send_to_worker link (m : to_worker) = send_value link m
let recv_to_worker link : to_worker = recv_value link

(* A float result is one float message whose header names its task;
   any other result is marshalled. *)
let send_result link ~task_id ~round = function
  | Bytes_p _ as payload -> send_value link (Result { task_id; round; payload })
  | Floats_p arr -> Link.send_floats link task_id round arr

let send_to_coordinator link (m : to_coordinator) = send_value link m

let recv_to_coordinator link : to_coordinator =
  match Link.recv link with
  | Wire.Bytes_msg s -> unmarshal link s
  | Wire.Floats_msg (task_id, round, arr) ->
      Result { task_id; round; payload = Floats_p arr }

(* A ring row is one float message: row [k], made by PE [origin]. *)
let send_row link ~k ~origin row = Link.send_floats link k origin row

let recv_row link =
  match Link.recv link with
  | Wire.Floats_msg (k, origin, row) -> (k, origin, row)
  | Wire.Bytes_msg _ -> Wire.raise_protocol "a byte message on a ring edge"
