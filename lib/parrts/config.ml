(** Runtime-system configuration: every knob the paper varies.

    Each record field corresponds to an implementation choice studied in
    the paper; the presets in {!Repro_core.Versions} compose them into
    the named configurations of Figs. 1–5. *)

type load_balance =
  | Push_polling
      (** GHC 6.8.x: the scheduler of a busy capability polls for idle
          capabilities and pushes surplus sparks/threads to them.
          Balancing happens only when a scheduler runs, hence the delay
          the paper criticises (Sec. IV-A.2). *)
  | Work_stealing
      (** the paper's optimisation: lock-free Chase–Lev spark deques;
          idle capabilities steal directly, no handshake. *)

type blackholing =
  | Lazy_bh
      (** thunks are marked as under-evaluation only when their thread
          is descheduled (GHC default; duplicate-evaluation window) *)
  | Eager_bh  (** thunks are marked immediately on entry *)

type spark_runner =
  | Thread_per_spark
      (** convert each spark into a fresh thread (creation/destruction
          overhead per spark) *)
  | Spark_threads
      (** one dedicated thread per capability drains sparks in a loop
          (Sec. IV-A.4) *)

type heap_mode =
  | Shared
      (** one global heap; nursery-full on any capability stops the
          world, and surplus runnable threads are pushed to idle
          capabilities (GpH / threaded GHC) *)
  | Distributed of Repro_mp.Transport.t
      (** one private heap per PE, collected independently; threads
          never leave their PE, and PEs communicate through the given
          middleware (Eden) *)

type t = {
  machine : Repro_machine.Machine.t;
  ncaps : int;  (** capabilities / (virtual) PEs *)
  gc : Repro_heap.Gc_model.t;
  load_balance : load_balance;
  blackholing : blackholing;
  spark_runner : spark_runner;
  heap_mode : heap_mode;
  timeslice_ns : int;  (** thread preemption quantum (GHC: 20 ms) *)
  thread_create_ns : int;  (** create + destroy a lightweight thread *)
  spark_cost : Repro_util.Cost.t;  (** cost of [par] itself *)
  spark_pool_capacity : int;
      (** spark pools are fixed-size ring buffers in GHC; a [par] into
          a full pool drops the spark (counted as overflow) *)
  steal_attempt_ns : int;  (** one steal attempt on a remote deque *)
  steal_wake_ns : int;  (** latency from spark creation to a stalled
                            capability noticing it *)
  push_handshake_ns : int;  (** per-spark hand-shake in pushing mode *)
  push_poll_interval_ns : int;
      (** how often a busy capability's scheduler polls for idle
          capabilities in push mode (models scheduler-entry frequency;
          the delay the paper criticises in Sec. IV-A.2) *)
  sched_poll_ns : int;  (** extra scheduler work per push-mode poll *)
  coherency_base : float;
      (** per-extra-capability mutator slowdown from cache-coherency
          traffic in the shared heap (Sec. VI-A, fourth bullet) *)
  seed : int;
  trace_enabled : bool;
}

let default ?(machine = Repro_machine.Machine.intel8) ?(ncaps = 8) () =
  {
    machine;
    ncaps;
    gc = Repro_heap.Gc_model.default;
    load_balance = Push_polling;
    blackholing = Lazy_bh;
    spark_runner = Thread_per_spark;
    heap_mode = Shared;
    timeslice_ns = 20_000_000;
    thread_create_ns = 3_500;
    spark_cost = Repro_util.Cost.make 60 ~alloc:16;
    spark_pool_capacity = 4096;
    steal_attempt_ns = 900;
    steal_wake_ns = 1_200;
    push_handshake_ns = 2_500;
    (* GHC's context-switch timer (-C): the scheduler of a busy
       capability runs — and can push work — at most this often unless
       a GC intervenes. *)
    push_poll_interval_ns = 7_000_000;
    sched_poll_ns = 1_500;
    coherency_base = 0.006;
    seed = 0xC0FFEE;
    trace_enabled = true;
  }

let is_distributed cfg =
  match cfg.heap_mode with Distributed _ -> true | Shared -> false
