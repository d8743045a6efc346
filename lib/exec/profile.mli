(** Post-hoc profile report over a trace of either real backend:
    per-worker (or per-PE) utilization, idle-gap histogram, spark
    granularity and steal latency — the per-CPU activity analysis of
    paper Sec. V, computed from the spans both backends record
    ({!Repro_trace.Chrome.span}).  Backs [repro_cli profile FILE.json]
    (on [exec --trace] or [dist --trace] files, read with
    {!Repro_trace.Chrome.of_json}) and the summary printed by
    [repro_cli exec --trace]. *)

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
  busy_us : float;
      (** union of task+eval slices (helping not double-counted), less
          the relay waits *)
  gc_us : float;
  parked_us : float;  (** parked slices and relay waits *)
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

val analyze : Repro_trace.Chrome.span list -> report
val to_string : report -> string
