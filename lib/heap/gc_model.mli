(** Garbage-collection cost models for the heap organisations the paper
    measures (Secs. III, IV-A.1, VI-A): shared stop-the-world
    (GHC 6.x) and independent per-PE (Eden).

    The model charges a pause per collection (copying cost proportional
    to surviving data) plus per-capability synchronisation for the
    shared heap's barrier.  "Improved GC synchronisation"
    (Fig. 1, row 3) is [sync = Improved].  Under [Legacy] sync, busy
    capabilities additionally only {e notice} a pending collection at a
    scheduler-entry point up to [legacy_notice_ns] after the request
    (the Sec. IV-A.1 barrier delay); under [Improved] they react at
    the next 4 kB allocation check. *)

type sync_mode = Legacy | Improved

type t = {
  alloc_area : int;  (** nursery bytes per capability (0.5 MB default) *)
  check_interval : int;  (** allocation between safepoint checks (4 kB) *)
  survival : float;  (** fraction of nursery live at a minor collection *)
  copy_ns_per_byte : float;
  major_every : int;  (** one major collection every N minors *)
  major_ns_per_byte : float;
  sync : sync_mode;
  sync_legacy_ns : int;  (** per-capability barrier entry cost, legacy *)
  sync_improved_ns : int;
  legacy_notice_ns : int;  (** legacy GC-request notice quantum *)
  gc_threads : int;  (** parallelism inside the collector (1 = GHC 6.9) *)
}

(** Calibrated against the paper's Fig. 1 (see EXPERIMENTS.md). *)
val default : t

(** The paper's "big allocation area" variant (default: 8 MB). *)
val big_area : ?bytes:int -> t -> t

val improved_sync : t -> t
val sync_entry_ns : t -> int

(** Stop-the-world minor pause once all capabilities stopped;
    [allocated] is total nursery data. *)
val minor_pause_ns : t -> ncaps:int -> allocated:int -> int

(** Stop-the-world major pause: traces the resident set. *)
val major_pause_ns : t -> ncaps:int -> resident:int -> int

(** Independent per-PE collection (no barrier, no sync term). *)
val independent_pause_ns :
  t -> allocated:int -> resident:int -> is_major:bool -> int
