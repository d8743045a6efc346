(** Pool of OCaml 5 [Domain]s with per-worker Chase–Lev spark deques
    and lock-free work stealing — the real-hardware counterpart of the
    simulated capabilities in [lib/parrts] (paper Sec. IV-A.2 spark
    pools + Sec. IV-C spark threads).

    The calling domain becomes worker 0 for the duration of {!run};
    [cores - 1] helper domains each run a spark-thread-style drain loop
    with randomised stealing, exponential backoff and condition-variable
    parking when the pool is idle.  The park/unpark handshake uses a
    generation counter so wakeups cannot be lost; [lib/check]
    model-checks a distilled copy of that handshake exhaustively.

    Each counted scheduler event is one probe: it bumps the worker's
    count for its {!Tracer.kind} and, when the pool is traced, writes
    the worker's trace ring.  {!events}, {!worker_events} and the
    registry collector read the same counts. *)

(** Aggregated scheduler counters, mirroring the simulator's eventlog
    summary: spark accounting (GpH "created / converted / fizzled")
    plus steal and park observability.  Exact when the pool is
    quiescent; after {!shutdown},
    [sparks_created = sparks_run + sparks_fizzled]. *)
type events = {
  sparks_created : int;
  sparks_run : int;
  sparks_fizzled : int;
  steal_attempts : int;
  steals : int;
  parks : int;
  wakeups : int;
}

type t

type task = unit -> unit

(** A worker binding: the pool plus the deque owned by the current
    domain.  Obtained via {!current} from inside {!run} or from a
    helper domain. *)
type ctx

(** [create ?cores ()] spawns [cores - 1] helper domains (default
    [Domain.recommended_domain_count ()]).  When [tracer] is given,
    each worker also writes its counted events and task, eval and park
    spans into its {!Tracer} ring buffer (enable the tracer {e before}
    creating the pool so the runtime's GC rings are captured from the
    helpers' birth); without it every ring write is a
    one-load-one-branch no-op.
    @raise Invalid_argument if [cores < 1], or if [tracer] has fewer
    buffers than [cores]. *)
val create : ?cores:int -> ?tracer:Tracer.t -> unit -> t

(** Number of workers (including the caller's worker 0). *)
val cores : t -> int

(** [run t f] registers the calling domain as worker 0 and evaluates
    [f ()].  Sparks created inside [f] are pushed to worker 0's deque
    and stolen by the helpers.  Reentrant calls and concurrent [run]s
    on the same pool are not supported. *)
val run : t -> (unit -> 'a) -> 'a

(** Stop and join the helper domains; accounts still-queued runners
    as fizzled sparks.  Idempotent. *)
val shutdown : t -> unit

(** [with_pool ?cores f]: {!create}, {!run}, always {!shutdown}. *)
val with_pool : ?cores:int -> (unit -> 'a) -> 'a

(** The current domain's binding, when inside a pool. *)
val current : unit -> ctx option

val ctx_pool : ctx -> t

(** Owner-side push of a task onto the current worker's deque; wakes
    parked workers. *)
val push : ctx -> task -> unit

(** Run one pending task (own deque first, then steal); [false] when
    no work was found.  Forcers call this to help while waiting. *)
val help : ctx -> bool

(** Spark accounting hooks for the {!Future} layer: the runner that
    performed (resp. skipped) its future's evaluation reports here. *)
val note_run : ctx -> unit

val note_fizzle : ctx -> unit

(** Trace hooks for the {!Future} layer (no-ops when untraced):
    claim-to-completion spans and force demands. *)
val note_eval_begin : ctx -> unit

val note_eval_end : ctx -> unit
val note_force : ctx -> unit

(** Counter snapshot (sum over workers).  Exact once quiescent. *)
val events : t -> events

(** Per-worker counter snapshots, indexed by worker id — makes load
    imbalance visible without a full trace. *)
val worker_events : t -> events array
