(** The coordinator/PE message vocabulary, GUM-style (paper
    Sec. III-B): the coordinator pushes work with [Schedule] (GUM's
    SCHEDULE message), idle PEs ask for more with [Fish] (GUM's FISH),
    and a PE that fished when nothing was runnable gets [No_work] and
    waits for the next round.  [Harvest]/[Stats] drain the per-PE
    counters at shutdown.  The vocabulary is the same over both
    transports: every message goes between the coordinator and one PE.

    Control payloads are [Marshal]-serialised {e fully-evaluated}
    values — Eden's rule that only whole normal forms cross the heap
    boundary.  Task and result payloads are pre-marshalled by the
    typed layer ({!Farm}) and travel here as opaque strings, so this
    module is monomorphic and every byte on the wire is accounted to
    the link's counters, marshalling time included.  Bulk float
    results bypass [Marshal] entirely: a [Result] with [blob >= 0]
    announces a float message of that many elements following on the
    same link (see {!send_result}/{!recv_result_payload}). *)

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
  | Schedule of {
      task_id : int;
      round : int;
      stealable : bool;
          (** the coordinator may place this task on any PE, so the PE
              fishes for more after it ([false] for pinned rounds —
              the PE holds matching resident state) *)
      payload : string;
    }
  | No_work
  | Harvest
  | Shutdown

(** One task's life on a PE, monotonic-clock nanoseconds (comparable
    with coordinator timestamps — see {!Clock}). *)
type task_span = {
  span_task_id : int;
  recv_done_ns : int;
  span_unpack_ns : int;
  exec_start_ns : int;
  exec_end_ns : int;
  span_pack_ns : int;
}

type worker_stats = {
  stats_pe : int;
  tasks_executed : int;
  fishes_sent : int;  (** demand requests sent to the coordinator *)
  msgs_sent : int;  (** on the PE's one link, to the coordinator *)
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
  exec_ns : int;  (** time inside [W.execute], summed *)
  gc_minor_collections : int;  (** deltas over the PE's own private heap *)
  gc_major_collections : int;
  gc_minor_words : float;
  gc_promoted_words : float;
  spans : task_span list;
  spans_dropped : int;
  metrics : Repro_metrics.Metrics.snapshot;
      (** the PE's full registry snapshot, piggybacked on the Stats
          reply so the coordinator can hold a merged view of the
          whole farm (snapshots are plain data, Marshal-safe) *)
}

type to_coordinator =
  | Ready
      (** the PE's session has started (over shm, every segment is
          mapped, so the files may be unlinked) *)
  | Fish
  | Result of {
      task_id : int;
      round : int;
      payload : string;
      blob : int;
          (** [-1]: [payload] is the marshalled result.  [>= 0]: the
              result is the float message of this many elements
              following on this link, and [payload] is empty. *)
    }
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

let recv_value : type a. Link.t -> a =
 fun link ->
  let s = Link.recv link in
  let t0 = Clock.now_ns () in
  let v : a = Marshal.from_string s 0 in
  let c = Link.counters link in
  c.Wire.unpack_ns <- c.Wire.unpack_ns + (Clock.now_ns () - t0);
  v

let send_hello link (h : hello) = send_value link h
let recv_hello link : hello = recv_value link
let send_to_worker link (m : to_worker) = send_value link m
let recv_to_worker link : to_worker = recv_value link
let send_to_coordinator link (m : to_coordinator) = send_value link m
let recv_to_coordinator link : to_coordinator = recv_value link

(** A result payload in transit: marshalled bytes, or a float blob
    that travelled (and on shm, crossed the rings) without [Marshal]. *)
type payload = Bytes_p of string | Floats_p of float array

let send_result link ~task_id ~round (p : payload) =
  match p with
  | Bytes_p s ->
      send_value link (Result { task_id; round; payload = s; blob = -1 })
  | Floats_p arr ->
      send_value link
        (Result { task_id; round; payload = ""; blob = Array.length arr });
      Link.send_floats link arr

(** Complete a received [Result]: pull the announced float blob off
    the same link, if any.  Must be called before the link is read
    again — the blob frames are queued right behind the control
    message. *)
let recv_result_payload link ~blob ~payload : payload =
  if blob < 0 then Bytes_p payload else Floats_p (Link.recv_floats link ~len:blob)
