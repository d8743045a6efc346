(** Hardware tracer: per-domain, preallocated ring buffers of
    timestamped scheduler events for the real executor — the
    ThreadScope/EdenTV instrument the paper's Sec. V optimisation
    story is told with, pointed at OCaml 5 domains instead of GHC
    capabilities.

    Design constraints, in order:

    - {b Zero cost when off.}  Every hot-path call site does exactly
      one atomic load and one branch ([record] on a disabled buffer);
      the timestamp is only taken after the branch.  The instrumented
      scheduler stays within noise of the uninstrumented one.
    - {b No cross-domain synchronisation when on.}  Each worker writes
      its own preallocated ring buffer ([int] arrays — timestamps from
      the monotonic clock, no [Unix.gettimeofday], no allocation in
      steady state); nothing is shared but the read-only enabled flag.
    - {b One span record for both real backends.}  {!spans} decodes
      the rings straight into {!Repro_trace.Chrome.span}s, pairing
      each begin with its end, the record a traced dist PE builds for
      its own slices, so the Chrome writer, the SVG projection and
      {!Profile} each read one type.
    - {b GC on the same timeline.}  The tracer subscribes to OCaml 5
      [Runtime_events], so each worker's minor/major collections land
      as spans between the scheduler events they actually interrupted
      (the runtime's timestamps come from the same monotonic clock).
      The runtime keys its events by ring, a domain slot that says
      nothing of which worker the domain runs, so each worker writes
      its id into its own domain's ring as it starts and as it stops
      ({!lifetime}).

    Ring semantics: when a buffer wraps, the {e oldest} events are
    overwritten — the tail of a run is what profiling wants.  Dropped
    counts are reported per worker. *)

module A = Repro_shim.Tatomic.Real
module Chrome = Repro_trace.Chrome
module Json = Repro_util.Json_out

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
  kind : kind array;
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
    kind = [| Spark_create |];
    arg = [| 0 |];
    head = 0;
    mask = 0;
  }

let[@inline] write b kind arg =
  let i = b.head land b.mask in
  b.ts.(i) <- now_ns ();
  b.kind.(i) <- kind;
  b.arg.(i) <- arg;
  b.head <- b.head + 1

let[@inline] record b kind ~arg = if A.get b.flag then write b kind arg

(* The int user event a worker writes into its domain's runtime ring:
   its worker id. *)
type Runtime_events.User.tag += Worker_ring

let worker_ring =
  Runtime_events.User.register "repro.tracer.worker" Worker_ring
    Runtime_events.Type.int

let lifetime b kind =
  if A.get b.flag then begin
    Runtime_events.User.write worker_ring b.worker;
    write b kind 0
  end

(* Raw GC span edge polled from Runtime_events. *)
type gc_event = { ring : int; at_ns : int; major : bool; is_begin : bool }

type t = {
  flag : bool A.t;
  buffers : buffer array;
  t0 : int;  (* monotonic ns at creation; span timestamps are relative *)
  gc_events : bool;
  mutable off_ns : int;  (* when last disabled; [max_int] while on *)
  mutable cursor : Runtime_events.cursor option;
  mutable gc : gc_event list;  (* reversed *)
  owners : (int, int) Hashtbl.t;  (* ring -> the worker that announced it *)
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
            kind = Array.make cap Spark_create;
            arg = Array.make cap 0;
            head = 0;
            mask = cap - 1;
          });
    t0 = now_ns ();
    gc_events;
    off_ns = max_int;
    cursor = None;
    gc = [];
    owners = Hashtbl.create 8;
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
  t.off_ns <- max_int;
  A.set t.flag true

let disable t =
  A.set t.flag false;
  t.off_ns <- now_ns ()

(* Poll pending Runtime_events into [t.gc] and [t.owners].  Only
   top-level minor and major phases are kept: they are the paper's GC
   story; sub-phases would swamp the timeline.  A ring read before the
   tracer existed holds someone else's events, announcements
   included. *)
let poll_gc t =
  match t.cursor with
  | None -> ()
  | Some cursor ->
      let ns raw_ts = Int64.to_int (Runtime_events.Timestamp.to_int64 raw_ts) in
      let add ring raw_ts major is_begin =
        let at_ns = ns raw_ts in
        if at_ns >= t.t0 then t.gc <- { ring; at_ns; major; is_begin } :: t.gc
      in
      let on_phase is_begin ring ts (phase : Runtime_events.runtime_phase) =
        match phase with
        | EV_MINOR -> add ring ts false is_begin
        | EV_MAJOR -> add ring ts true is_begin
        | _ -> ()
      in
      let on_user ring ts ev worker =
        match Runtime_events.User.tag ev with
        | Worker_ring when ns ts >= t.t0 -> Hashtbl.replace t.owners ring worker
        | _ -> ()
      in
      let callbacks =
        Runtime_events.Callbacks.create ~runtime_begin:(on_phase true)
          ~runtime_end:(on_phase false)
          ~lost_events:(fun _ring n -> t.gc_lost <- t.gc_lost + n)
          ()
        |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.int on_user
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
   are visible in metric snapshots (not only in exported traces).
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

(* One timed edge on a track: an instant, or a slice's begin or end. *)
type edge = {
  time : int;
  tid : int;
  phase : [ `Instant | `Begin | `End ];
  name : string;
  cat : string;
  args : (string * Json.t) list;
}

(* What a ring event of [kind] becomes. *)
let shape = function
  | Spark_create -> (`Instant, "spark-create", "spark")
  | Spark_run -> (`Instant, "spark-run", "spark")
  | Spark_fizzle -> (`Instant, "spark-fizzle", "spark")
  | Steal_attempt -> (`Instant, "steal-attempt", "steal")
  | Steal_success -> (`Instant, "steal", "steal")
  | Park -> (`Begin, "parked", "exec")
  | Unpark -> (`End, "parked", "exec")
  | Eval_begin -> (`Begin, "eval", "exec")
  | Eval_end -> (`End, "eval", "exec")
  | Force -> (`Instant, "force-wait", "future")
  | Task_begin -> (`Begin, "task", "exec")
  | Task_end -> (`End, "task", "exec")
  | Worker_begin -> (`Begin, "worker", "exec")
  | Worker_end -> (`End, "worker", "exec")

let spans t =
  poll_gc t;
  let edges = ref [] in
  let add ?(args = []) time tid (phase, name, cat) =
    edges := { time; tid; phase; name; cat; args } :: !edges
  in
  let note text = add 0 0 (`Instant, text, "custom") in
  Array.iter
    (fun b ->
      let cap = b.mask + 1 in
      for k = b.head - min b.head cap to b.head - 1 do
        let i = k land b.mask in
        let args =
          match b.kind.(i) with
          | Steal_attempt | Steal_success -> [ ("victim", Json.Int b.arg.(i)) ]
          | _ -> []
        in
        add ~args (max 0 (b.ts.(i) - t.t0)) b.worker (shape b.kind.(i))
      done;
      if b.head > cap then
        note
          (Printf.sprintf "worker %d dropped %d oldest events (ring wrap)"
             b.worker (b.head - cap)))
    t.buffers;
  List.iter
    (fun { ring; at_ns; major; is_begin } ->
      match Hashtbl.find_opt t.owners ring with
      | Some worker when at_ns <= t.off_ns ->
          add (at_ns - t.t0) worker
            ( (if is_begin then `Begin else `End),
              (if major then "gc:major" else "gc:minor"),
              "gc" )
      | _ -> ())
    (List.rev t.gc);
  if t.gc_lost > 0 then note (Printf.sprintf "%d runtime events lost" t.gc_lost);
  let edges =
    List.stable_sort (fun a b -> compare a.time b.time) (List.rev !edges)
  in
  let last = List.fold_left (fun acc e -> max acc e.time) 0 edges in
  let out = ref [] in
  let emit e dur_ns =
    out :=
      { Chrome.tid = e.tid; name = e.name; cat = e.cat; ts_ns = e.time; dur_ns; args = e.args }
      :: !out
  in
  (* the begins still open per (track, name), innermost first: nested
     helping nests task slices *)
  let open_ = Hashtbl.create 32 in
  let opened e = Option.value ~default:[] (Hashtbl.find_opt open_ (e.tid, e.name)) in
  List.iter
    (fun e ->
      match e.phase with
      | `Instant -> emit e None
      | `Begin -> Hashtbl.replace open_ (e.tid, e.name) (e :: opened e)
      | `End -> (
          match opened e with
          | b :: rest ->
              Hashtbl.replace open_ (e.tid, e.name) rest;
              emit b (Some (e.time - b.time))
          | [] -> ()  (* its begin was overwritten by the ring *)))
    edges;
  Hashtbl.iter (fun _ -> List.iter (fun b -> emit b (Some (last - b.time)))) open_;
  List.stable_sort
    (fun (a : Chrome.span) (b : Chrome.span) -> compare a.ts_ns b.ts_ns)
    (List.rev !out)

let trace t =
  Chrome.document
    ~tracks:(List.init (ncaps t) (fun w -> (w, Printf.sprintf "worker %d" w)))
    (spans t)
