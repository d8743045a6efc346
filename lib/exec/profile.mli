(** Post-hoc profile report over a hardware trace: per-worker
    utilization, idle-gap histogram, spark granularity and steal
    latency — the per-CPU activity analysis of paper Sec. V, computed
    from the Chrome trace-event document {!Repro_trace.Chrome} emits.
    Backs [repro_cli profile FILE.json] and the summary printed by
    [repro_cli exec --trace]. *)

type input

(** Reduce a parsed Chrome trace-event document ({!Repro_util.Json_in}
    output or the {!Repro_util.Json_out} value built by
    {!Repro_trace.Chrome.of_eventlog}) to its slices and instants.
    @raise Failure if the document has no [traceEvents] array. *)
val of_chrome_json : Repro_util.Json_out.t -> input

(** Convenience: eventlog -> Chrome document -> {!input}, exercising
    the same path a file round-trip would. *)
val of_eventlog : ncaps:int -> Repro_trace.Eventlog.t -> input

(** Percentile summary of a duration sample (µs). *)
type dist = {
  count : int;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  max_us : float;
}

type worker_row = {
  wtid : int;  (** worker id (Chrome [tid]) *)
  busy_us : float;  (** union of task+eval slices (helping not double-counted) *)
  gc_us : float;
  parked_us : float;
  tasks : int;
  steals : int;  (** successful steals by this worker *)
  util_pct : float;  (** busy / trace wall span *)
}

type report = {
  wall_us : float;
  workers : worker_row list;  (** sorted by worker id *)
  idle_gap_hist : (string * int) list;
      (** non-busy gaps inside each worker's live span, bucketed
          ["<10us"] .. [">=10ms"]; empty buckets omitted *)
  spark_granularity : dist;  (** [eval] (claim-to-completion) spans *)
  steal_latency : dist;
      (** per successful steal: time since the thief last finished busy
          work (how long it hunted before landing work) *)
  idle_gaps_us : float list;  (** raw gap samples *)
}

val analyze : input -> report
val pp : Format.formatter -> report -> unit
val to_string : report -> string
