(** Result of one simulated run: elapsed virtual time plus the
    runtime-system statistics the paper's analysis relies on. *)

type gc = {
  minors : int;
  majors : int;
  pause_total_ns : int;  (** summed collection pauses *)
  barrier_wait_ns : int;
      (** capability-time spent waiting at the stop-the-world barrier
          before collection could start (the Sec. IV-A.1 bottleneck) *)
  max_pause_ns : int;
}

type sparks = {
  created : int;
  converted : int;  (** turned into threads / run by a spark thread *)
  stolen : int;
  pushed : int;  (** transferred by the push-polling balancer *)
  fizzled : int;  (** already evaluated when activated *)
  overflowed : int;  (** dropped because the spark pool was full *)
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
  eventlog : Repro_trace.Eventlog.t;
}

let elapsed_s r = float_of_int r.elapsed_ns /. 1e9
let elapsed_ms r = float_of_int r.elapsed_ns /. 1e6

let pp ppf r =
  Format.fprintf ppf
    "@[<v>elapsed %.3f ms, utilisation %.1f%%, %d engine events@,\
     gc: %d minor + %d major, pause %.2f ms, barrier wait %.2f ms@,\
     sparks: %d created, %d converted, %d stolen, %d pushed, %d fizzled, \
     %d overflowed@,\
     threads: %d created;  dup entries: %d;  blocked forces: %d;  \
     msgs: %d (%d bytes)@]"
    (elapsed_ms r) (100.0 *. r.utilisation) r.engine_events r.gc.minors r.gc.majors
    (float_of_int r.gc.pause_total_ns /. 1e6)
    (float_of_int r.gc.barrier_wait_ns /. 1e6)
    r.sparks.created r.sparks.converted r.sparks.stolen r.sparks.pushed
    r.sparks.fizzled r.sparks.overflowed r.threads_created
    r.dup_work_entries r.blocked_forces r.messages.sent r.messages.bytes
