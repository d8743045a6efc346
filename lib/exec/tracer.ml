(** Hardware eventlog: per-domain, preallocated ring buffers of
    timestamped scheduler events for the real executor — the
    ThreadScope/EdenTV instrument the paper's Sec. V optimisation
    story is told with, pointed at OCaml 5 domains instead of GHC
    capabilities.

    Design constraints, in order:

    - {b Zero cost when off.}  Every hot-path call sites does exactly
      one atomic load and one branch ([record] on a disabled buffer);
      the timestamp is only taken after the branch.  The instrumented
      scheduler stays within noise of the uninstrumented one.
    - {b No cross-domain synchronisation when on.}  Each worker writes
      its own preallocated ring buffer ([int] arrays — timestamps from
      the monotonic clock, no [Unix.gettimeofday], no allocation in
      steady state); nothing is shared but the read-only enabled flag.
    - {b One event vocabulary for sim and hardware.}  On merge the
      per-domain buffers become a {!Repro_trace.Eventlog} — the same
      representation the simulator emits — so the SVG renderer, the
      summary statistics, and the Chrome-trace exporter work on both.
    - {b GC on the same timeline.}  The merge subscribes to OCaml 5
      [Runtime_events], so each domain's minor/major collections land
      as spans between the scheduler events they actually interrupted
      (the runtime's timestamps come from the same monotonic clock).

    Ring semantics: when a buffer wraps, the {e oldest} events are
    overwritten — the tail of a run is what profiling wants.  Dropped
    counts are reported per worker. *)

module A = Repro_shim.Tatomic.Real
module Eventlog = Repro_trace.Eventlog

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind =
  | Spark_create
  | Spark_run
  | Spark_fizzle
  | Steal_attempt  (** arg = victim worker id *)
  | Steal_success  (** arg = victim worker id *)
  | Park
  | Unpark
  | Eval_begin
  | Eval_end
  | Force
  | Task_begin
  | Task_end
  | Worker_begin
  | Worker_end

let code = function
  | Spark_create -> 0
  | Spark_run -> 1
  | Spark_fizzle -> 2
  | Steal_attempt -> 3
  | Steal_success -> 4
  | Park -> 5
  | Unpark -> 6
  | Eval_begin -> 7
  | Eval_end -> 8
  | Force -> 9
  | Task_begin -> 10
  | Task_end -> 11
  | Worker_begin -> 12
  | Worker_end -> 13

let kinds = 14

type buffer = {
  flag : bool A.t;
      (* shared with the owning tracer; the only cross-domain state a
         recording worker ever reads *)
  worker : int;
  ts : int array;
  code : int array;
  arg : int array;
  mutable head : int;  (* total events ever written; index = head mod cap *)
  mask : int;  (* capacity - 1; capacity is a power of two *)
}

(* Permanently-disabled buffer handed to untraced pools: keeps the hot
   path monomorphic (no option check, just the flag branch). *)
let null_buffer =
  {
    flag = A.make false;
    worker = -1;
    ts = [| 0 |];
    code = [| 0 |];
    arg = [| 0 |];
    head = 0;
    mask = 0;
  }

let[@inline] record b kind ~arg =
  if A.get b.flag then begin
    let i = b.head land b.mask in
    b.ts.(i) <- now_ns ();
    b.code.(i) <- code kind;
    b.arg.(i) <- arg;
    b.head <- b.head + 1
  end

(* Raw GC span event polled from Runtime_events. *)
type gc_event = { ring : int; at_ns : int; major : bool; is_begin : bool }

type t = {
  flag : bool A.t;
  buffers : buffer array;
  t0 : int;  (* monotonic ns at creation; merged timestamps are relative *)
  gc_events : bool;
  mutable cursor : Runtime_events.cursor option;
  mutable gc : gc_event list;  (* reversed *)
  mutable gc_lost : int;
}

let round_up_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(capacity = 1 lsl 16) ?(gc_events = true) ~ncaps () =
  if ncaps < 1 then invalid_arg "Tracer.create: ncaps must be >= 1";
  if capacity < 1 then invalid_arg "Tracer.create: capacity must be >= 1";
  let cap = round_up_pow2 capacity in
  let flag = A.make false in
  {
    flag;
    buffers =
      Array.init ncaps (fun worker ->
          {
            flag;
            worker;
            ts = Array.make cap 0;
            code = Array.make cap 0;
            arg = Array.make cap 0;
            head = 0;
            mask = cap - 1;
          });
    t0 = now_ns ();
    gc_events;
    cursor = None;
    gc = [];
    gc_lost = 0;
  }

let ncaps t = Array.length t.buffers

let buffer t i =
  if i < 0 || i >= Array.length t.buffers then
    invalid_arg "Tracer.buffer: worker id out of range";
  t.buffers.(i)

let enable t =
  (* Start the runtime's own event stream before any helper domain is
     spawned, so every domain's ring is captured from birth. *)
  if t.gc_events && t.cursor = None then begin
    Runtime_events.start ();
    t.cursor <- Some (Runtime_events.create_cursor None)
  end;
  A.set t.flag true

let disable t = A.set t.flag false

(* Poll pending Runtime_events into [t.gc].  Only top-level minor and
   major phases are kept: they are the paper's GC story; sub-phases
   would swamp the timeline.  The ring id is the runtime's domain
   slot, which for a single pool created after [enable] coincides with
   the worker id (the main domain owns ring 0, helpers take the next
   free slots). *)
let poll_gc t =
  match t.cursor with
  | None -> ()
  | Some cursor ->
      let add ring raw_ts major is_begin =
        let at_ns = Int64.to_int (Runtime_events.Timestamp.to_int64 raw_ts) in
        t.gc <- { ring; at_ns; major; is_begin } :: t.gc
      in
      let on_phase is_begin ring ts (phase : Runtime_events.runtime_phase) =
        match phase with
        | EV_MINOR -> add ring ts false is_begin
        | EV_MAJOR -> add ring ts true is_begin
        | _ -> ()
      in
      let callbacks =
        Runtime_events.Callbacks.create ~runtime_begin:(on_phase true)
          ~runtime_end:(on_phase false)
          ~lost_events:(fun _ring n -> t.gc_lost <- t.gc_lost + n)
          ()
      in
      (* drain: read_poll consumes up to a bounded batch per call *)
      let rec drain () =
        if Runtime_events.read_poll cursor callbacks None > 0 then drain ()
      in
      drain ()

let dropped t =
  Array.map (fun b -> max 0 (b.head - (b.mask + 1))) t.buffers

let recorded t =
  Array.fold_left (fun acc b -> acc + min b.head (b.mask + 1)) 0 t.buffers

(* Ring-drop accounting as registry samples, so trace-buffer overruns
   are visible in metric snapshots (not only in exported eventlogs).
   Pull-based: a tracer has no destroy lifecycle, so the CLI registers
   this as a collector for the duration of a traced run. *)
let metrics_samples t =
  let module M = Repro_metrics.Metrics in
  M.c_sample ~help:"Runtime events lost by the Runtime_events ring"
    "repro_tracer_lost_runtime_events_total"
    (float_of_int t.gc_lost)
  :: Array.to_list
       (Array.mapi
          (fun worker b ->
            M.c_sample
              ~labels:[ ("worker", string_of_int worker) ]
              ~help:"Trace events overwritten by ring wrap-around"
              "repro_tracer_dropped_events_total"
              (float_of_int (max 0 (b.head - (b.mask + 1)))))
          t.buffers)

(* Decode one ring slot into the shared event vocabulary. *)
let decode worker code arg : Eventlog.event =
  match code with
  | 0 -> Spark_created { cap = worker }
  | 1 -> Spark_converted { cap = worker }
  | 2 -> Spark_fizzled { cap = worker }
  | 3 -> Steal_attempt { thief = worker; victim = arg }
  | 4 -> Steal_success { thief = worker; victim = arg }
  | 5 -> Cap_parked { cap = worker }
  | 6 -> Cap_unparked { cap = worker }
  | 7 -> Eval_begin { cap = worker }
  | 8 -> Eval_end { cap = worker }
  | 9 -> Future_forced { cap = worker }
  | 10 -> Task_begin { cap = worker }
  | 11 -> Task_end { cap = worker }
  | 12 -> Worker_begin { cap = worker }
  | 13 -> Worker_end { cap = worker }
  | c -> Custom (Printf.sprintf "unknown-kind-%d" c)

(** Merge the per-domain ring buffers (plus pending GC spans) into one
    chronologically sorted {!Repro_trace.Eventlog} with timestamps in
    nanoseconds since the tracer's creation.  Call only while the
    traced pool is quiescent (after [Pool.shutdown], or between
    runs). *)
let to_eventlog t =
  poll_gc t;
  let acc = ref [] in
  Array.iter
    (fun b ->
      let cap = b.mask + 1 in
      let count = min b.head cap in
      let oldest = b.head - count in
      for k = oldest to b.head - 1 do
        let i = k land b.mask in
        acc :=
          (max 0 (b.ts.(i) - t.t0), decode b.worker b.code.(i) b.arg.(i))
          :: !acc
      done;
      let d = max 0 (b.head - cap) in
      if d > 0 then
        acc :=
          ( 0,
            Eventlog.Custom
              (Printf.sprintf "worker %d dropped %d oldest events (ring wrap)"
                 b.worker d) )
          :: !acc)
    t.buffers;
  List.iter
    (fun { ring; at_ns; major; is_begin } ->
      let time = at_ns - t.t0 in
      (* events from before the tracer existed belong to someone else *)
      if time >= 0 then
        let ev : Eventlog.event =
          if is_begin then Gc_begin { cap = ring; major }
          else Gc_end { cap = ring; major }
        in
        acc := (time, ev) :: !acc)
    t.gc;
  if t.gc_lost > 0 then
    acc :=
      (0, Eventlog.Custom (Printf.sprintf "%d runtime events lost" t.gc_lost))
      :: !acc;
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !acc)
  in
  let log = Eventlog.create () in
  List.iter (fun (time, ev) -> Eventlog.emit log ~time ev) sorted;
  log
