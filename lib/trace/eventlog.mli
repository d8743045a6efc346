(** Structured runtime event log (GHC-eventlog style) — the
    profiling-tool side of the paper's contribution: discrete runtime
    events with timestamps plus derived summary statistics. *)

type event =
  | Thread_created of { tid : int; cap : int }
  | Thread_finished of { tid : int; cap : int }
  | Thread_blocked of { tid : int; cap : int }
  | Thread_woken of { tid : int; cap : int }
  | Thread_migrated of { tid : int; from_cap : int; to_cap : int }
  | Spark_created of { cap : int }
  | Spark_converted of { cap : int }
  | Spark_stolen of { thief : int }
  | Spark_fizzled of { cap : int }
  | Spark_overflowed of { cap : int }
  | Gc_requested of { cap : int }
  | Gc_started of { minors : int; major : bool }
  | Gc_finished
  | Message_sent of { src : int; dst : int; bytes : int }
  | Message_delivered of { dst : int; bytes : int }
  | Blackhole_entered of { cap : int }
  (* Hardware events recorded by [lib/exec]'s per-domain tracer; caps
     are worker ids, begin/end pairs are spans on a worker's
     timeline. *)
  | Steal_attempt of { thief : int; victim : int }
  | Steal_success of { thief : int; victim : int }
  | Cap_parked of { cap : int }
  | Cap_unparked of { cap : int }
  | Task_begin of { cap : int }
  | Task_end of { cap : int }
  | Eval_begin of { cap : int }  (** future claimed; its body runs *)
  | Eval_end of { cap : int }
  | Future_forced of { cap : int }
      (** forcer demanded an unfinished future *)
  | Worker_begin of { cap : int }  (** worker loop / [Pool.run] lifetime *)
  | Worker_end of { cap : int }
  | Gc_begin of { cap : int; major : bool }  (** per-domain GC span *)
  | Gc_end of { cap : int; major : bool }
  | Custom of string

val event_name : event -> string

type t

val create : unit -> t

(** Stop recording (events are dropped). *)
val disable : t -> unit

val emit : t -> time:int -> event -> unit
val length : t -> int

(** Events in emission order, with timestamps. *)
val events : t -> (int * event) list

(** Text dump, one event per line. *)
val dump : t -> string

(** Derived statistics. *)
type summary = {
  counts : (string * int) list;  (** events per kind *)
  gc_gaps_ns : Repro_util.Stats.t;  (** mutator time between GCs *)
  gc_pauses_ns : Repro_util.Stats.t;
  thread_lifetimes_ns : Repro_util.Stats.t;
  messages_per_pe : (int * int) array option;
      (** per-PE (sent, received); present when [ncaps] was given *)
}

val summarise : ?ncaps:int -> t -> summary
val pp_summary : Format.formatter -> summary -> unit

(** Project a hardware event log onto the per-capability state
    timeline ([Gc] > [Running] > [Blocked] > [Runnable] > [Idle]), so
    the EdenTV-style {!Render}/{!Render_svg} renderers work on real
    runs exactly as on simulated ones.  Only the span events
    (task/eval, park, worker, GC) and steal markers contribute. *)
val to_trace : ncaps:int -> t -> Trace.t
