(** Runtime-system configuration: every knob the paper varies.  The
    presets in {!Repro_core.Versions} compose these into the named
    configurations of Figs. 1–5. *)

type load_balance =
  | Push_polling
      (** GHC 6.8.x: a busy capability's scheduler polls for idle
          capabilities and pushes surplus sparks/threads to them;
          balancing happens only when a scheduler runs (Sec. IV-A.2) *)
  | Work_stealing
      (** lock-free Chase–Lev spark deques; idle capabilities steal
          directly, no handshake (the paper's optimisation) *)

type blackholing =
  | Lazy_bh
      (** thunks marked under-evaluation only at deschedule (GHC
          default; opens the duplicate-evaluation window) *)
  | Eager_bh  (** thunks marked immediately on entry *)

type spark_runner =
  | Thread_per_spark  (** one fresh thread per activated spark *)
  | Spark_threads
      (** one dedicated thread per capability drains sparks in a loop
          (Sec. IV-A.4) *)

type heap_mode =
  | Shared
      (** one global heap; a full nursery stops the world, and surplus
          runnable threads migrate to idle capabilities (GpH) *)
  | Distributed of Repro_mp.Transport.t
      (** one private heap per PE, collected independently; threads
          stay on their PE, which communicates through the given
          middleware (Eden) *)

type t = {
  machine : Repro_machine.Machine.t;
  ncaps : int;  (** capabilities / (virtual) PEs *)
  gc : Repro_heap.Gc_model.t;
  load_balance : load_balance;
  blackholing : blackholing;
  spark_runner : spark_runner;
  heap_mode : heap_mode;
  timeslice_ns : int;  (** preemption quantum (GHC: 20 ms) *)
  thread_create_ns : int;  (** create + destroy a lightweight thread *)
  spark_cost : Repro_util.Cost.t;  (** cost of [par] itself *)
  spark_pool_capacity : int;  (** fixed ring size; overflow drops sparks *)
  steal_attempt_ns : int;  (** one steal attempt on a remote deque *)
  steal_wake_ns : int;  (** spark creation to stalled-cap wake-up *)
  push_handshake_ns : int;  (** per-spark hand-shake when pushing *)
  push_poll_interval_ns : int;
      (** how often a busy capability's scheduler polls for idle
          capabilities in push mode *)
  sched_poll_ns : int;  (** mutator cost of one push-mode poll *)
  coherency_base : float;
      (** per-extra-capability shared-heap slowdown from coherency
          traffic (Sec. VI-A) *)
  seed : int;
  trace_enabled : bool;
}

(** The GHC 6.9 defaults on the paper's Intel 8-core. *)
val default : ?machine:Repro_machine.Machine.t -> ?ncaps:int -> unit -> t

val is_distributed : t -> bool
