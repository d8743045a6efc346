(** Lock-free metrics registry: per-domain sharded counters, gauges and
    {!Hdr} histograms, plus pull-mode collectors bridging existing
    per-instance tallies (pool worker counters, wire link counters, GC
    stats) into snapshots.

    Hot-path design: a counter increment is one [fetch_and_add] on a
    per-domain shard (hardware XADD — no CAS loop, no allocation, no
    flag tested first).  Snapshots are plain data: Marshal-safe,
    mergeable across shards, registries and processes, and relabelable
    so a coordinator can merge per-PE snapshots into one farm-wide
    view.

    Every [?registry] argument defaults to the process-wide registry,
    which has a GC collector pre-registered ([repro_gc_*] gauges from
    [Gc.quick_stat]). *)

type t
(** A registry. *)

val create : unit -> t
(** One shard per hardware core ([Domain.recommended_domain_count]),
    rounded up to a power of two and clamped to 64. *)

(** {2 Instruments} *)

type counter

val counter :
  ?registry:t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Registers (or finds — registration is idempotent by name + label
    set) a monotone counter.  By convention names end in [_total].
    @raise Invalid_argument if the name is registered with another kind. *)

val incr : counter -> unit
val add : counter -> int -> unit

type gauge

val gauge :
  ?registry:t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val set_gauge : gauge -> float -> unit

type histogram

val histogram :
  ?registry:t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?sub_bits:int ->
  string ->
  histogram

val observe : histogram -> int -> unit
(** Records a non-negative integer observation (negatives clamp to 0). *)

(** {2 Snapshots} *)

type value = Counter of float | Gauge of float | Hist of Hdr.snapshot

type sample = {
  s_name : string;
  s_labels : (string * string) list;  (** sorted by key *)
  s_help : string;
  s_value : value;
}

type snapshot = {
  taken_ns : int;  (** monotonic clock at snapshot time *)
  elapsed_ns : int;  (** since the registry was created *)
  samples : sample list;
}

val c_sample : ?help:string -> ?labels:(string * string) list -> string -> float -> sample
(** Sample constructors for collector callbacks. *)

val g_sample : ?help:string -> ?labels:(string * string) list -> string -> float -> sample

val h_sample :
  ?help:string -> ?labels:(string * string) list -> string -> Hdr.snapshot -> sample

val snapshot : ?registry:t -> unit -> snapshot
(** Live instruments, collector callbacks and retired samples, merged
    into one canonical sample list (duplicate name + label keys are
    combined: counters and gauges add, histograms bucket-merge). *)

val merge : snapshot -> snapshot -> snapshot
(** Associative, commutative combination by (name, labels) key.
    @raise Invalid_argument when a key is bound to different kinds. *)

val relabel : string * string -> snapshot -> snapshot
(** [relabel (k, v) s] adds (or overrides) label [k] on every sample —
    e.g. [("pe", "3")] before merging a worker snapshot into the
    coordinator's view. *)

val find : ?labels:(string * string) list -> snapshot -> string -> sample option
(** Exact name + label-set lookup. *)

val total : snapshot -> string -> float
(** Sum of all counter/gauge samples with this name, across label sets
    (histogram samples contribute nothing). *)

val hist_total : snapshot -> string -> Hdr.snapshot
(** Merge of all histogram samples with this name. *)

val document :
  meta:(string * Repro_util.Json_out.t) list -> snapshot -> Repro_util.Json_out.t
(** The end-of-run metrics document, schema ["repro/metrics/v1"]: the
    [meta] fields (the run's command, workload, size, ...), then
    ["snapshot"]: [taken_ns], [elapsed_ns] and one [samples] entry per
    sample (name, labels, help, kind, and a number or an {!Hdr.to_json}
    histogram as value). *)

(** {2 Collectors} *)

type collector

val add_collector : ?registry:t -> name:string -> (unit -> sample list) -> collector
(** Registers a callback polled at snapshot time.  Exceptions from the
    callback are swallowed (it contributes no samples). *)

val remove_collector : ?registry:t -> collector -> unit
(** Polls the callback one final time and folds its samples into the
    registry's retired set, so cumulative totals survive the lifecycle
    of the object that owned them (a shut-down pool, a closed link). *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds. *)
