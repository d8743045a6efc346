(** Wall-clock measurement of the two real backends under one record:
    the shared-heap executor (domains, [lib/exec]) and the
    distributed-heap farm (processes, [lib/dist]) are timed, summarised,
    tabulated and dumped the same way, so their rows sit side by side
    as in the paper's GpH-vs-Eden comparison.

    Each backend supplies one function that performs a single timed run
    and returns a {!sample}; this module does the rest (warm-up,
    repeats, checksum agreement, speedup ladder, table, JSON). *)

type backend = Domains | Processes

(** ["domains"] / ["processes"] — the name used in reports and JSON. *)
val backend_name : backend -> string

(** GC counter deltas over one run: the calling domain's on
    {!Domains} (worker-domain minor heaps are not included, so treat
    them as allocation-rate indicators), the PEs' private heaps summed
    on {!Processes}. *)
type gc = {
  minor_collections : int;
  major_collections : int;
  minor_words : float;
  promoted_words : float;
}

(** [gc_delta before after] from two [Gc.quick_stat]s. *)
val gc_delta : Gc.stat -> Gc.stat -> gc

(** One timed run, as a backend reports it. *)
type sample = {
  workload : string;
  backend : backend;
  transport : string option;  (** ["socketpair"] / ["shm"] on processes *)
  size : int;
  workers : int;  (** domains or worker processes *)
  ns : int;  (** the timed part: the workload, without [spawn_ns] *)
  spawn_ns : int;  (** pool or process creation, reported apart *)
  result : int;  (** checksum *)
  gc : gc;
  counts : (string * float) list;  (** backend-specific named counters *)
  per_worker : (string * float) list array;  (** one named row per worker *)
}

type measurement = {
  workload : string;
  backend : backend;
  transport : string option;
  size : int;
  workers : int;
  repeats : int;
  mean_ns : float;
  stddev_ns : float;
  min_ns : float;
  speedup : float;  (** vs the first entry of the same sweep; 1.0 alone *)
  result : int;
  spawn_mean_ns : float;
  gc : gc;  (** from the last timed run, like [counts] and [per_worker] *)
  counts : (string * float) list;
  per_worker : (string * float) list array;
}

(** [sweep ~repeats ~ladder run] measures [run workers] at each worker
    count of [ladder]: one untimed warm-up, then [repeats] timed calls.
    Each run's duration is also observed into the default registry's
    [repro_run_duration_ns] histogram.  Speedups are relative to the
    first entry.
    @raise Invalid_argument if [repeats < 1].
    @raise Failure if two runs at one count disagree on the checksum. *)
val sweep :
  repeats:int -> ladder:int list -> (int -> sample) -> measurement list

(** [1; 2; 4; ...; n] ([n] always included). *)
val core_counts_up_to : int -> int list

(** One row per measurement.  Columns no row has a value for (the
    transport, the spark and steal counts of {!Domains}, the traffic
    counters of {!Processes}) are left out. *)
val to_table : measurement list -> Repro_util.Tablefmt.t

(** The [repro/measure/v1] document: schema id, [env] and one
    [measurements] entry per row, whichever backend it came from. *)
val json_document : measurement list -> Repro_util.Json_out.t
