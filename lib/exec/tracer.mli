(** Hardware tracer for the real executor: per-domain preallocated
    ring buffers of timestamped scheduler events (sparks, steals with
    victim ids, park/unpark, future claim/force, task spans), recorded
    with monotonic-clock timestamps and no cross-domain
    synchronisation on the hot path.  When tracing is off, {!record}
    costs one atomic load and one branch.

    {!spans} decodes the rings, with each worker's minor/major GC spans
    (from OCaml 5 [Runtime_events], same clock), straight into
    {!Repro_trace.Chrome.span}s, the record the process farm's PEs
    build too: {!trace} writes them for Perfetto,
    {!Repro_trace.Chrome.to_trace} projects them for SVG, and
    {!Profile.analyze} reads them. *)

type t

(** One worker's ring buffer.  Write-owned by a single domain. *)
type buffer

type kind =
  | Spark_create
  | Spark_run
  | Spark_fizzle
  | Steal_attempt  (** arg = victim worker id *)
  | Steal_success  (** arg = victim worker id *)
  | Park
  | Unpark
  | Eval_begin  (** future claimed (eager black-hole CAS won) *)
  | Eval_end
  | Force  (** forcer demanded a future that was not yet done *)
  | Task_begin
  | Task_end
  | Worker_begin  (** worker loop / [Pool.run] lifetime *)
  | Worker_end

(** Dense index of a kind, in [0, kinds): a recorder that counts
    events keeps one cell per kind. *)
val code : kind -> int

val kinds : int

(** [create ~ncaps ()] preallocates one ring of [capacity] slots
    (rounded up to a power of two, default 65536) per worker.  When
    [gc_events] (default [true]), {!enable} also starts the OCaml
    runtime's event stream so GC spans are merged in.  Tracing starts
    {e disabled}.
    @raise Invalid_argument if [ncaps < 1] or [capacity < 1]. *)
val create : ?capacity:int -> ?gc_events:bool -> ncaps:int -> unit -> t

val ncaps : t -> int

(** @raise Invalid_argument if the worker id is out of range. *)
val buffer : t -> int -> buffer

(** A permanently-disabled buffer for untraced pools: recording into
    it is the one-load-one-branch no-op. *)
val null_buffer : buffer

(** Flip the shared enabled flag.  [enable] is called before the pool
    spawns its domains (so the runtime's rings are captured from
    birth); it is not safe to toggle concurrently with {!spans}.
    GC spans that begin after [disable] are not the trace's. *)
val enable : t -> unit

val disable : t -> unit

(** Hot path.  On a disabled buffer: one atomic load, one branch. *)
val record : buffer -> kind -> arg:int -> unit

(** [Worker_begin] or [Worker_end], called on the worker's own domain
    as it starts and as it stops: when tracing is on it also writes the
    worker id into that domain's [Runtime_events] ring, which is how
    {!spans} knows whose GC spans the ring holds. *)
val lifetime : buffer -> kind -> unit

(** Events overwritten by ring wrap-around, per worker (oldest events
    are dropped first). *)
val dropped : t -> int array

(** Events currently held across all rings. *)
val recorded : t -> int

(** Ring-drop accounting ([repro_tracer_dropped_events_total] per
    worker, [repro_tracer_lost_runtime_events_total]) as registry
    samples — register as a {!Repro_metrics.Metrics.add_collector}
    callback for the duration of a traced run. *)
val metrics_samples : t -> Repro_metrics.Metrics.sample list

(** The rings and GC spans as spans in start order, worker [w] on
    track [w], nanoseconds since the tracer's creation: [task],
    [eval], [parked], [worker] and [gc:minor]/[gc:major] slices, and
    spark, steal and force instants (steals carry a [victim] arg).
    A slice's begin and end pair up per track and name, the innermost
    open one first; an end whose begin the ring overwrote is dropped,
    and a slice still open is closed at the last timestamp.  A GC span
    goes to the worker whose domain collected it; those of domains
    that ran no worker are dropped.  Ring wrap and lost runtime events
    are noted as instants at time 0 on track 0.  Call while the traced
    pool is quiescent (after shutdown, or between runs). *)
val spans : t -> Repro_trace.Chrome.span list

(** {!spans} as a Chrome trace-event document on one named track per
    worker (["worker w"]), which [repro_cli profile] reads. *)
val trace : t -> Repro_util.Json_out.t
