(** Hardware eventlog for the real executor: per-domain preallocated
    ring buffers of timestamped scheduler events (sparks, steals with
    victim ids, park/unpark, future claim/force, task spans), recorded
    with monotonic-clock timestamps and no cross-domain
    synchronisation on the hot path.  When tracing is off, {!record}
    costs one atomic load and one branch.

    On merge ({!to_eventlog}) the buffers become a
    {!Repro_trace.Eventlog} — the same representation the simulator
    emits — with each domain's minor/major GC spans (from OCaml 5
    [Runtime_events], same clock) on the same timeline.  Feed the
    result to {!Repro_trace.Chrome} for Perfetto, to
    {!Repro_trace.Eventlog.to_trace} + {!Repro_trace.Render_svg} for
    SVG, or to {!Profile} for the utilization report. *)

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
    birth); it is not safe to toggle concurrently with recording
    merges. *)
val enable : t -> unit

val disable : t -> unit
val enabled : t -> bool

(** Hot path.  On a disabled buffer: one atomic load, one branch. *)
val record : buffer -> kind -> arg:int -> unit

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

(** Merge the per-domain buffers and pending GC spans into one
    chronologically sorted eventlog; timestamps are nanoseconds since
    the tracer's creation.  Call while the traced pool is quiescent
    (after shutdown, or between runs). *)
val to_eventlog : t -> Repro_trace.Eventlog.t
