(** Real-hardware executor substrate: a pool of [Domain]s, one per
    capability, each owning a Chase–Lev {!Repro_deque.Ws_deque} spark
    pool.

    This is the hardware counterpart of the simulated runtime in
    [lib/parrts]: where the simulator *models* GHC capabilities on a
    virtual clock, this pool *is* the paper's optimised shared-heap
    configuration on OCaml 5 domains (domains ≈ capabilities; see
    "Retrofitting Parallelism onto OCaml", PAPERS.md):

    - each worker runs a dedicated spark-thread-style loop (the paper's
      Sec. IV-C optimisation: drain sparks from a queue instead of
      forking a thread per spark);
    - work distribution is lock-free work stealing (Sec. IV-A.2): the
      owner pushes/pops at its deque's bottom, idle workers steal from
      a random victim's top with a single CAS;
    - idle workers back off (bounded steal sweeps, [Domain.cpu_relax])
      and finally park on a condition variable, so an idle pool burns
      no CPU; any push wakes them.

    Tasks are [unit -> unit] closures.  The layer above ({!Future},
    {!Strategies}) puts only idempotent "run this future if still
    unclaimed" closures in the deques, which is what makes stolen
    sparks safe to run twice — the CAS on the future's state cell (an
    eager black-hole) guarantees at most one evaluation.

    Each counted scheduler event (spark create/run/fizzle, steal
    attempt/success, park, force) is one {!probe} call: it bumps the
    worker's count for that {!Tracer.kind} and, when the pool is
    traced, writes the worker's trace ring.  {!events}, {!worker_events}
    and the registry collector all read those counts. *)

module A = Repro_shim.Tatomic.Real
module Ws_deque = Repro_deque.Ws_deque
module M = Repro_metrics.Metrics
module Rng = Repro_util.Rng

(** Aggregated per-pool scheduler counters (paper-style spark
    accounting plus steal/park observability).  Exact once the pool is
    quiescent — in particular after {!shutdown}; snapshots taken while
    workers run may be mid-update.  The invariant the executor
    maintains (asserted by the test suite) is
    [sparks_created = sparks_run + sparks_fizzled] at shutdown. *)
type events = {
  sparks_created : int;  (** runner tasks pushed onto a deque *)
  sparks_run : int;  (** runners that performed their future's evaluation *)
  sparks_fizzled : int;
      (** runners that found their future already claimed, plus runners
          discarded undone when a deque was drained at shutdown *)
  steal_attempts : int;  (** individual [Ws_deque.steal] calls *)
  steals : int;  (** successful steals *)
  parks : int;  (** times a worker gave up stealing and parked *)
  wakeups : int;  (** broadcasts issued because a sleeper was present *)
}

type task = unit -> unit

(* The events each worker counts, with their registry series.  Each
   count is written by one domain in the steady state (the owner for
   pushes, steals and parks, the running worker for run/fizzle/force),
   so its atomic increment is uncontended. *)
let counted : (Tracer.kind * string * string) list =
  [
    ( Spark_create,
      "repro_pool_sparks_created_total",
      "Runner tasks pushed onto a deque" );
    ( Spark_run,
      "repro_pool_sparks_run_total",
      "Runners that performed their future's evaluation" );
    ( Spark_fizzle,
      "repro_pool_sparks_fizzled_total",
      "Runners that found their future already claimed" );
    ( Steal_attempt,
      "repro_steal_attempts_total",
      "Individual Ws_deque.steal calls" );
    (Steal_success, "repro_steals_total", "Successful steals");
    (Park, "repro_pool_parks_total", "Times this worker parked");
    (Force, "repro_future_forces_total", "Force demands seen by this worker");
  ]

type worker = {
  id : int;
  deque : task Ws_deque.t;
  rng : Rng.t;  (** victim selection; deterministically seeded per worker *)
  counts : int A.t array;  (** indexed by {!Tracer.code}; see {!probe} *)
  wakeups : int A.t;  (** broadcasts issued for this worker's pushes *)
  busy_ns : int A.t;  (** wall time spent inside tasks (metrics-gated) *)
  tbuf : Tracer.buffer;
      (** this worker's trace ring; {!Tracer.null_buffer} when the
          pool is untraced, so every record call is one load + one
          branch *)
}

type t = {
  workers : worker array;
  mutable mtoken : M.collector option;  (* default-registry collector *)
  mutable domains : unit Domain.t list;  (* helper domains, workers 1.. *)
  stop : bool A.t;
  sleepers : int A.t;
  wake_gen : int A.t;
      (* Generation counter bumped (under no lock) before every
         broadcast.  A parking worker snapshots it before its final
         deque re-check; the wait predicate re-reads it, so a wakeup
         issued between the re-check and [Condition.wait] can never be
         lost even if the broadcast itself lands in that window. *)
  lock : Mutex.t;
  wake : Condition.t;
}

type ctx = t * worker

(* The current domain's (pool, worker) binding.  Set for helper domains
   at spawn, and for the caller's domain for the duration of [run]. *)
let context_key : ctx option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get context_key
let cores t = Array.length t.workers
let ctx_pool ((t, _) : ctx) = t

(* The one probe of a counted event: this worker's count for [kind],
   and its trace ring when the pool is traced. *)
let[@inline] probe (w : worker) kind ~arg =
  A.incr w.counts.(Tracer.code kind);
  Tracer.record w.tbuf kind ~arg

let count (w : worker) kind = A.get w.counts.(Tracer.code kind)
let note_run ((_, w) : ctx) = probe w Spark_run ~arg:0
let note_fizzle ((_, w) : ctx) = probe w Spark_fizzle ~arg:0

(* Trace hooks for the {!Future} layer: claim-to-completion spans
   (the spark-granularity instrument) and force demands. *)
let note_eval_begin ((_, w) : ctx) =
  Tracer.record w.tbuf Tracer.Eval_begin ~arg:0

let note_eval_end ((_, w) : ctx) =
  Tracer.record w.tbuf Tracer.Eval_end ~arg:0

let note_force ((_, w) : ctx) = probe w Force ~arg:0

(* An {!events} record from per-kind counts and a wakeup count: one
   worker's, or their sums over the pool. *)
let events_of count wakeups : events =
  {
    sparks_created = count Tracer.Spark_create;
    sparks_run = count Tracer.Spark_run;
    sparks_fizzled = count Tracer.Spark_fizzle;
    steal_attempts = count Tracer.Steal_attempt;
    steals = count Tracer.Steal_success;
    parks = count Tracer.Park;
    wakeups;
  }

let worker_events t =
  Array.map (fun w -> events_of (count w) (A.get w.wakeups)) t.workers

let events t =
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 t.workers in
  events_of
    (fun kind -> sum (fun w -> count w kind))
    (sum (fun w -> A.get w.wakeups))

(* Collector callback: per-worker counter samples for the default
   metrics registry.  Reads are racy-but-atomic snapshots, same
   guarantee as {!events}. *)
let metrics_samples t =
  Array.fold_left
    (fun acc w ->
      let labels = [ ("worker", string_of_int w.id) ] in
      let c name help v = M.c_sample ~help ~labels name (float_of_int v) in
      List.map (fun (kind, name, help) -> c name help (count w kind)) counted
      @ c "repro_pool_wakeups_total" "Broadcasts issued for a sleeper"
          (A.get w.wakeups)
      :: c "repro_pool_busy_ns_total" "Wall time spent inside tasks"
           (A.get w.busy_ns)
      :: M.g_sample ~labels ~help:"Tasks currently queued in this worker's deque"
           "repro_pool_queue_depth"
           (float_of_int (Ws_deque.size w.deque))
      :: acc)
    [] t.workers

let has_work t =
  let n = Array.length t.workers in
  let rec go i =
    i < n
    && ((not (Ws_deque.is_empty t.workers.(i).deque)) || go (i + 1))
  in
  go 0

(* Wake parked workers after making work available (or on shutdown).
   Reading [sleepers] after the push is safe against lost wakeups: the
   parking worker increments [sleepers] *before* re-checking the
   deques, so under OCaml's sequentially-consistent atomics either the
   pusher sees the sleeper (and bumps [wake_gen] + broadcasts), or the
   sleeper sees the pushed task on its re-check.  The [wake_gen] bump
   additionally covers the window between the sleeper's re-check and
   its [Condition.wait]: the wait predicate re-reads the generation,
   so a broadcast delivered before the sleeper reaches [wait] still
   terminates the wait.  [lib/check] model-checks this handshake
   exhaustively (and shows the check-then-park variant without the
   generation counter deadlocks). *)
let signal_work (w : worker) t =
  if A.get t.sleepers > 0 then begin
    A.incr t.wake_gen;
    A.incr w.wakeups;
    Mutex.lock t.lock;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock
  end

(* Owner-side push onto this worker's own deque. *)
let push ((t, w) : ctx) task =
  Ws_deque.push w.deque task;
  probe w Spark_create ~arg:0;
  signal_work w t

(* One randomised steal sweep: start at a random victim, visit every
   other worker once. *)
let steal_once t (w : worker) =
  let n = Array.length t.workers in
  if n <= 1 then None
  else begin
    let start = Rng.int w.rng n in
    let rec go k =
      if k >= n then None
      else
        let v = t.workers.((start + k) mod n) in
        if v.id = w.id then go (k + 1)
        else begin
          probe w Steal_attempt ~arg:v.id;
          match Ws_deque.steal v.deque with
          | Some _ as r ->
              probe w Steal_success ~arg:v.id;
              r
          | None -> go (k + 1)
        end
    in
    go 0
  end

let find_task t (w : worker) =
  match Ws_deque.pop w.deque with
  | Some _ as r -> r
  | None ->
      (* a few sweeps with a pause between them before reporting
         famine *)
      let rec attempt i =
        if i >= 4 then None
        else
          match steal_once t w with
          | Some _ as r -> r
          | None ->
              Domain.cpu_relax ();
              attempt (i + 1)
      in
      attempt 0

(* Tasks from the future layer never raise (they capture exceptions in
   the result cell), but keep helper domains alive no matter what goes
   into a deque.  The task span brackets every execution — worker
   loop and helping forcers alike — so per-worker busy time is
   visible in traces. *)
let run_task (w : worker) task =
  Tracer.record w.tbuf Tracer.Task_begin ~arg:0;
  (* Busy-time accounting pays its two clock reads per *task* (not
     per record), and only while the default registry is enabled. *)
  if M.enabled M.default then begin
    let t0 = M.now_ns () in
    (try task () with _ -> ());
    ignore (A.fetch_and_add w.busy_ns (M.now_ns () - t0))
  end
  else (try task () with _ -> ());
  Tracer.record w.tbuf Tracer.Task_end ~arg:0

(* Run one pending task if any is available.  Used both by the worker
   loop and by forcers that help while waiting on a future. *)
let help ((t, w) : ctx) =
  match find_task t w with
  | Some task ->
      run_task w task;
      true
  | None -> false

let park t (w : worker) =
  probe w Park ~arg:0;
  A.incr t.sleepers;
  let gen = A.get t.wake_gen in
  (* Final re-check *after* announcing ourselves as a sleeper: either
     the pusher saw [sleepers > 0] and will bump [wake_gen], or this
     check sees its task.  blocking-in-worker (baselined): parking IS
     the designed blocking point — a worker only reaches it with
     every deque empty, and any push broadcasts [wake]. *)
  if not (A.get t.stop) && not (has_work t) then begin
    Mutex.lock t.lock;
    while
      (not (A.get t.stop))
      && (not (has_work t))
      && A.get t.wake_gen = gen
    do
      Condition.wait t.wake t.lock
    done;
    Mutex.unlock t.lock
  end;
  A.decr t.sleepers;
  Tracer.record w.tbuf Tracer.Unpark ~arg:0

let rec worker_loop t (w : worker) =
  if not (A.get t.stop) then begin
    (match find_task t w with
    | Some task -> run_task w task
    | None -> park t w);
    worker_loop t w
  end

(* Helper-domain entry: the worker span brackets the whole loop so
   every domain owns at least one slice in exported traces. *)
let worker_main t (w : worker) =
  Domain.DLS.set context_key (Some (t, w));
  Tracer.record w.tbuf Tracer.Worker_begin ~arg:0;
  worker_loop t w;
  Tracer.record w.tbuf Tracer.Worker_end ~arg:0

let create ?cores:requested ?tracer () =
  let ncores =
    match requested with
    | Some c ->
        if c < 1 then invalid_arg "Pool.create: cores must be >= 1";
        c
    | None -> Domain.recommended_domain_count ()
  in
  (match tracer with
  | Some tr when Tracer.ncaps tr < ncores ->
      invalid_arg
        (Printf.sprintf
           "Pool.create: tracer has %d buffer(s) but the pool wants %d"
           (Tracer.ncaps tr) ncores)
  | _ -> ());
  let tbuf_of id =
    match tracer with
    | Some tr -> Tracer.buffer tr id
    | None -> Tracer.null_buffer
  in
  let master = Rng.create 0x9e3779b9 in
  let workers =
    Array.init ncores (fun id ->
        {
          id;
          deque = Ws_deque.create ();
          rng = Rng.split master;
          counts = Array.init Tracer.kinds (fun _ -> A.make 0);
          wakeups = A.make 0;
          busy_ns = A.make 0;
          tbuf = tbuf_of id;
        })
  in
  let t =
    {
      workers;
      mtoken = None;
      domains = [];
      stop = A.make false;
      sleepers = A.make 0;
      wake_gen = A.make 0;
      lock = Mutex.create ();
      wake = Condition.create ();
    }
  in
  t.mtoken <- Some (M.add_collector ~name:"pool" (fun () -> metrics_samples t));
  t.domains <-
    List.init (ncores - 1) (fun i ->
        Domain.spawn (fun () -> worker_main t t.workers.(i + 1)));
  t

(* Discard a worker's leftover deque entries, accounting for them:
   an unexecuted runner is a spark that fizzled (its future was, or
   will be, evaluated in place by whoever forces it). *)
let discard_leftovers (w : worker) =
  let leftover = List.length (Ws_deque.drain w.deque) in
  if leftover > 0 then
    ignore (A.fetch_and_add w.counts.(Tracer.code Spark_fizzle) leftover)

let run t f =
  let w0 = t.workers.(0) in
  let saved = Domain.DLS.get context_key in
  Domain.DLS.set context_key (Some (t, w0));
  Tracer.record w0.tbuf Tracer.Worker_begin ~arg:0;
  Fun.protect
    ~finally:(fun () ->
      (* Leftover deque entries are runners for futures that were
         already forced (and hence claimed): discard them. *)
      Tracer.record w0.tbuf Tracer.Worker_end ~arg:0;
      discard_leftovers w0;
      Domain.DLS.set context_key saved)
    f

let shutdown t =
  A.set t.stop true;
  A.incr t.wake_gen;
  Mutex.lock t.lock;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- [];
  (* Helpers are joined: any runner still sitting in a deque will
     never execute — account it as fizzled so the spark ledger
     balances ([sparks_created = sparks_run + sparks_fizzled]). *)
  Array.iter discard_leftovers t.workers;
  (* Retire the metrics collector last so the flushed totals include
     the leftover-fizzle accounting above; cumulative per-worker
     counters survive this pool in the default registry. *)
  match t.mtoken with
  | Some tok ->
      t.mtoken <- None;
      M.remove_collector tok
  | None -> ()

let with_pool ?cores f =
  let t = create ?cores () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> run t f)
