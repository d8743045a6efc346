(** Garbage-collection cost models for the two heap organisations the
    paper measures (Secs. III, IV-A.1 and VI-A):

    - {b Shared stop-the-world} (GHC 6.x threaded RTS): each capability
      owns a private {e allocation area} (nursery, default 0.5 MB); when
      any nursery fills, {e all} capabilities must rendezvous at a
      barrier before collection can start.  Threads only notice the GC
      request at a context-switch check, which happens once per 4 kB of
      allocation — so slowly-allocating threads delay the barrier (the
      paper's Sec. IV-A.1 bottleneck).

    - {b Distributed} (Eden): each PE collects its own private heap
      completely independently; no barrier, perfect GC scalability
      (Sec. VI-A).

    The model charges a pause for every collection, computed from the
    amount of data that survives (copying collector: cost proportional
    to live data), plus per-capability synchronisation overhead for the
    shared heap's barrier.  The "improved GC synchronisation" of
    the paper's Fig. 1 corresponds to [sync = Improved]. *)

type sync_mode =
  | Legacy  (** GHC 6.8/6.9 handshake: expensive per-capability entry *)
  | Improved  (** the paper's optimised barrier signalling *)

type t = {
  alloc_area : int;  (** nursery bytes per capability (0.5 MB default) *)
  check_interval : int;  (** allocation between context-switch checks (4 kB) *)
  survival : float;  (** fraction of nursery live at a minor collection *)
  copy_ns_per_byte : float;  (** copying cost for surviving data *)
  major_every : int;  (** one major collection every N minors *)
  major_ns_per_byte : float;  (** tracing cost over resident data *)
  sync : sync_mode;
  sync_legacy_ns : int;  (** per-capability barrier entry cost, legacy *)
  sync_improved_ns : int;  (** per-capability barrier entry cost, improved *)
  legacy_notice_ns : int;
      (** under [Legacy] sync, a busy capability only notices a pending
          GC request at a scheduler-entry point — up to this long after
          the request (the timer quantum); under [Improved] it reacts
          at the next allocation check *)
  gc_threads : int;  (** parallelism inside the collector (1 = sequential) *)
}

(* Defaults are calibrated against the paper's Fig. 1 (see
   lib/experiments/calibration.ml): GHC 6.9's sequential two-generation
   copying collector with 0.5 MB allocation areas. *)
let default =
  {
    alloc_area = 512 * 1024;
    check_interval = 4 * 1024;
    survival = 0.08;
    copy_ns_per_byte = 0.45;
    major_every = 40;
    major_ns_per_byte = 0.35;
    sync = Legacy;
    sync_legacy_ns = 130_000;
    sync_improved_ns = 45_000;
    legacy_notice_ns = 14_000_000;
    gc_threads = 1;
  }

(* The paper's "big allocation area" variant (Sec. IV-A.1: "simply
   increasing the size of the allocation areas had a massive effect"). *)
let big_area ?(bytes = 8 * 1024 * 1024) t = { t with alloc_area = bytes }

let improved_sync t = { t with sync = Improved }

let sync_entry_ns t =
  match t.sync with Legacy -> t.sync_legacy_ns | Improved -> t.sync_improved_ns

(* Pause for a minor (young-generation) collection once all capabilities
   have stopped.  [allocated] is the total nursery data across the
   stopped capabilities. *)
let minor_pause_ns t ~ncaps ~allocated =
  let live = t.survival *. float_of_int allocated in
  let copy = live *. t.copy_ns_per_byte /. float_of_int (max 1 t.gc_threads) in
  let sync = sync_entry_ns t * ncaps in
  max 1 (int_of_float copy + sync)

(* Pause for a major collection: trace the whole resident set. *)
let major_pause_ns t ~ncaps ~resident =
  let trace =
    float_of_int resident *. t.major_ns_per_byte
    /. float_of_int (max 1 t.gc_threads)
  in
  let sync = sync_entry_ns t * ncaps in
  max 1 (int_of_float trace + sync)

(* Independent per-PE collection (Eden / distributed heaps): no barrier,
   no per-capability sync term. *)
let independent_pause_ns t ~allocated ~resident ~is_major =
  if is_major then
    max 1 (int_of_float (float_of_int resident *. t.major_ns_per_byte))
  else
    max 1
      (int_of_float (t.survival *. float_of_int allocated *. t.copy_ns_per_byte))
