(** Result of one simulated run: elapsed virtual time plus the
    runtime-system statistics the paper's analysis relies on. *)

type gc = {
  minors : int;
  majors : int;
  pause_total_ns : int;  (** summed collection pauses *)
  barrier_wait_ns : int;
      (** capability-time spent waiting at the stop-the-world barrier
          (the Sec. IV-A.1 bottleneck) *)
  max_pause_ns : int;
}

type sparks = {
  created : int;
  converted : int;  (** turned into threads / run by a spark thread *)
  stolen : int;
  pushed : int;  (** transferred by the push-polling balancer *)
  fizzled : int;  (** already evaluated when activated *)
  overflowed : int;  (** dropped: spark pool full *)
}

type messages = { sent : int; bytes : int }

type t = {
  elapsed_ns : int;  (** virtual time until the main thread finished *)
  gc : gc;
  sparks : sparks;
  messages : messages;
  threads_created : int;
  dup_work_entries : int;  (** duplicate thunk entries (lazy-BH waste) *)
  blocked_forces : int;  (** forces that blocked on a black hole *)
  utilisation : float;  (** fraction of capability-time spent running *)
  engine_events : int;
      (** engine events the host dispatched: one per charge segment,
          message, GC phase and scheduler step *)
  trace : Repro_trace.Trace.t;
  eventlog : Repro_trace.Eventlog.t;  (** structured runtime events *)
}

val elapsed_s : t -> float
val elapsed_ms : t -> float
val pp : Format.formatter -> t -> unit
