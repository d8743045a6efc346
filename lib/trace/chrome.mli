(** Chrome trace-event (Perfetto / [chrome://tracing]) writer, the one
    producer of [traceEvents] documents for both real backends: one
    named track per worker or PE, spans with a duration as complete
    slices ([ph = "X"]), point events as thread-scoped instants
    ([ph = "i"]).  Every emitted event carries [ph]/[ts]/[pid]/[tid];
    timestamps are microseconds. *)

(** One event on track [tid], in nanoseconds: a slice of [dur_ns] from
    [ts_ns], or an instant at [ts_ns] when [dur_ns] is [None]. *)
type span = {
  tid : int;
  name : string;
  cat : string;
  ts_ns : int;
  dur_ns : int option;
  args : (string * Repro_util.Json_out.t) list;
}

(** [document ~tracks spans] is the JSON document
    ([{"traceEvents": [...], ...}]): one [thread_name] record per
    [(tid, name)] track, then the spans in order. *)
val document : tracks:(int * string) list -> span list -> Repro_util.Json_out.t

(** [of_eventlog ~ncaps log] is the {!document} of an eventlog, one
    track per worker [0 .. ncaps - 1]: task, eval, parked, worker and
    per-domain GC spans as slices, sparks, steals and forces as
    instants.  [instants] are extra caller-supplied markers
    [(ts_ns, name, args)] drawn as instants on track 0 in the
    ["metrics"] category — the executor uses them to pin periodic
    metric snapshots onto the timeline (timestamps must share the
    log's timebase, i.e. be relative to the tracer's epoch). *)
val of_eventlog :
  ?instants:(int * string * (string * float) list) list ->
  ncaps:int ->
  Eventlog.t ->
  Repro_util.Json_out.t
