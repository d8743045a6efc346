(** Coordinator of the distributed (multi-process) executor: a task
    farm placed by {!Repro_mp.Star}, where each unpinned result is also
    the PE's request for more work, one worker process per PE, over a
    choice of transport. *)

(** The paper's PVM-on-sockets vs PVM-on-shared-memory axis, which
    changes only how bytes move: {!Sock} is a socketpair per link,
    {!Shm} a pair of mapped single-producer rings per link with a
    socketpair as its doorbell.  Over both, the PEs form a star around
    the coordinator, which sends every task and gets every result, and
    on two or more PEs also a ring of links, PE [i] to PE
    [(i + 1) mod procs], which carries every row a task relays PE to
    PE; the coordinator wires the ring at spawn and carries none of
    it. *)
type transport = Sock | Shm

(** ["socketpair"] / ["shm"] — the name used in reports and JSON. *)
val transport_name : transport -> string

(** Coordinator-side timing of one [Schedule] send (same monotonic
    timebase as the worker's spans, so {!spans} can draw the wire
    segment between them). *)
type sched_span = {
  sp_task_id : int;
  sp_pe : int;
  sp_bytes : int;  (** marshalled task payload size *)
  send_start_ns : int;
  send_done_ns : int;
}

type pe_report = {
  rep_pe : int;
  rep_pid : int;
  stats : Message.worker_stats;  (** the PE's own view of the session *)
  co : Wire.counters;
      (** the coordinator's view of the same link, copied when the PE's
          [Stats] arrived *)
}

type outcome = {
  result : int;
  procs : int;
  rounds : int;  (** 1: a run is one round *)
  tasks : int;
  schedules : int;  (** [Schedule] messages sent (either endpoint) *)
  fishes : int;
      (** unpinned results, each also the PE's request for more work *)
  no_works : int;  (** unpinned results that found no task left *)
  reports : pe_report array;
  sched_spans : sched_span list;  (** newest first; [] unless traced *)
  coord_pack_ns : int;  (** task payload marshalling on the coordinator *)
  coord_unpack_ns : int;  (** result payload unmarshalling *)
  work_ns : int;  (** [start] to [finish]; excludes spawn *)
  spawn_ns : int;
      (** process creation and PE start-up: until every PE has started
          its session and sent [Ready] *)
  merged_metrics : Repro_metrics.Metrics.snapshot;
      (** every PE's piggybacked registry snapshot (relabeled [pe=N])
          merged into the coordinator's own (relabeled [pe=coord]) —
          the farm-wide view, one registry across all processes *)
}

(** The spans of a traced run ([run ~trace:true]; empty otherwise),
    rebased to the earliest one.  PE [p] is track [p], with the slices
    the PE recorded ({!Message.worker_stats}): a [task] slice per
    executed task, as in the pool's traces, between [unpack] and
    [pack] slices, and a [wait] slice inside it per blocking ring
    receive.  The coordinator adds a [wire] slice from its send-done
    timestamp to the start of the task's [unpack] (every process reads
    the same CLOCK_MONOTONIC), and its own track [procs] with its
    [schedule] sends.  [schedule] and [wire] slices carry the payload
    size as a [bytes] arg. *)
val spans : outcome -> Repro_trace.Chrome.span list

(** {!spans} as a Chrome trace-event document on named tracks
    (["PE p"], ["coordinator"]), which [repro_cli profile] reads. *)
val trace : outcome -> Repro_util.Json_out.t

(** PE [pe]'s link closed after the PE sent [Ready] and before the
    coordinator sent [Shutdown], in the round or at harvest.  [status]
    is the PE's own, read when every PE is killed and reaped on the
    way out. *)
exception Pe_died of { pe : int; status : Unix.process_status }

(** [run ~procs ~size (module W)] executes the workload on [procs]
    worker processes and returns the checksum plus per-PE traffic, GC
    and timing counters.  Every PE re-executes this binary with
    [Worker]'s marker argument (the host binary must call
    [Worker.maybe_run]).  [transport] defaults to {!Sock}.
    [trace] records per-task spans on every PE and schedule spans on
    the coordinator.

    @raise Invalid_argument if [procs < 1].
    @raise Pe_died if a PE dies mid-round or at harvest.
    @raise Failure on protocol violations (a result for the wrong
    round, for a task its PE does not hold, or for one already
    returned; a worker dying before [Ready] or exiting non-zero at
    shutdown). *)
val run :
  ?transport:transport ->
  ?trace:bool ->
  procs:int ->
  size:int ->
  (module Workload.S) ->
  outcome

(** One timed {!run} as a measurement sample: [ns] is [work_ns],
    [spawn_ns] the PE start-up; GC deltas and traffic are summed
    over the PEs' own [Message.worker_stats], which also give one
    per-worker row each. *)
val sample :
  transport:transport ->
  procs:int ->
  size:int ->
  (module Workload.S) ->
  Repro_metrics.Measure.sample

(** [farm fs] evaluates each closure on some PE and returns the
    results in order — Eden's process-abstraction farm.  Closures are
    marshalled with [Marshal.Closures], which is only sound because
    every worker runs the same binary; captured state travels by copy,
    and results must be marshallable (no functions baked in).
    @raise Pe_died as {!run} does, e.g. if a closure exits its PE. *)
val farm :
  ?transport:transport ->
  procs:int ->
  (unit -> 'a) list ->
  'a list
