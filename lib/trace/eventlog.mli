(** Structured runtime event log (GHC-eventlog style) — the
    profiling-tool side of the paper's contribution: the simulator's
    discrete runtime events with timestamps plus derived summary
    statistics.  The real backends record {!Chrome.span}s instead. *)

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

val event_name : event -> string

type t

val create : unit -> t

(** Stop recording (events are dropped). *)
val disable : t -> unit

val emit : t -> time:int -> event -> unit
val length : t -> int

(** Events in emission order, with timestamps. *)
val events : t -> (int * event) list

(** One event as {!dump} prints it, after its time. *)
val pp_event : Format.formatter -> event -> unit

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
