(** Chrome trace-event (Perfetto / [chrome://tracing]) spans: the one
    record of a traced event in both real backends, its writer and its
    reader.  One named track per worker or PE; spans with a duration
    are complete slices ([ph = "X"]), point events thread-scoped
    instants ([ph = "i"]).  Every emitted event carries
    [ph]/[ts]/[pid]/[tid]; timestamps are microseconds. *)

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

(** The spans of a parsed {!document} ({!Repro_util.Json_in} output),
    in document order: its slices and instants, whatever wrote them;
    metadata records are skipped.  Timestamps come back as the
    nanoseconds they were written from.
    @raise Failure if the document has no [traceEvents] array. *)
val of_json : Repro_util.Json_out.t -> span list

(** Project spans onto the per-capability state timeline
    ([Gc] > [Running] > [Blocked] > [Runnable] > [Idle]), so the
    EdenTV-style {!Render}/{!Render_svg} renderers draw a real run as
    they draw a simulated one: on track [cap] < [ncaps], a
    [gc:minor]/[gc:major] slice reads [Gc], a [task] or [eval] slice
    [Running], a [parked] slice [Blocked] and a [worker] slice
    [Runnable]; a [steal] instant becomes a marker naming its
    [victim]. *)
val to_trace : ncaps:int -> span list -> Trace.t
