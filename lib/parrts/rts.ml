(** The runtime-system simulator.

    This module plays the role of GHC's threaded runtime (for the
    shared-heap GpH configurations) and of the Eden PE runtime (for the
    distributed-heap configurations), at the level of abstraction the
    paper analyses:

    - {b capabilities} (= PEs), one per simulated core, each with a run
      queue of lightweight threads and a Chase–Lev spark deque;
    - {b lightweight threads} implemented as OCaml 5 effect-handler
      fibers; thread code charges virtual {e work} and {e allocation}
      through {!Api} and the scheduler advances a discrete-event clock;
    - {b context-switch checks} once per [check_interval] (4 kB) of
      allocation — GC requests, timeslice expiry and (lazy) black-holing
      are only noticed at these safepoints, reproducing the barrier
      delay of the paper's Sec. IV-A.1;
    - {b stop-the-world GC} for the shared heap, {b independent per-PE
      GC} for the distributed heap, and the semi-distributed
      local/global scheme of Sec. VI-A as an extension;
    - {b load balancing} by push-polling (GHC 6.8.x) or lock-free work
      stealing (the paper's optimisation, Sec. IV-A.2);
    - {b spark activation} by thread-per-spark or by dedicated spark
      threads (Sec. IV-A.4);
    - {b message passing} with middleware cost profiles for the
      distributed mode (Sec. III-B).

    All fiber execution happens synchronously inside engine events, so
    runs are fully deterministic. *)

module Cost = Repro_util.Cost
module Rng = Repro_util.Rng
module Engine = Repro_sim.Engine
module Trace = Repro_trace.Trace
module Machine = Repro_machine.Machine
module Node = Repro_heap.Node
module Gc_model = Repro_heap.Gc_model
module Ws_deque = Repro_deque.Ws_deque
module Transport = Repro_mp.Transport
module Eventlog = Repro_trace.Eventlog

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

(** A spark: a deferred computation plus a cheap usefulness test (a
    spark whose thunk was meanwhile evaluated "fizzles"). *)
type spark = { run : unit -> unit; still_needed : unit -> bool }

type thread_state = Runnable | Running | Blocked | Finished

type resume =
  | Start of (unit -> unit)
  | Resume of (unit, unit) Effect.Deep.continuation
  | Consumed

type thread = {
  tid : int;
  mutable tstate : thread_state;
  mutable resume : resume;
  mutable pending_cycles : int;  (** unconsumed part of the current charge *)
  mutable pending_alloc : int;
  mutable in_flight : bool;
      (** a charge segment of [seg_cycles] and [seg_alloc] is scheduled
          to end with [end_segment]; a thread has at most one *)
  mutable seg_cycles : int;
  mutable seg_alloc : int;
  end_segment : unit -> unit;
  mutable update_stack : Node.boxed list;
      (** thunks this thread is currently evaluating (for retroactive
          lazy black-holing on deschedule) *)
  mutable cap : int;  (** owning capability *)
  mutable slice_start : int;
  is_spark_thread : bool;
}

type cap = {
  idx : int;
  runq : thread Queue.t;
  pool : spark Ws_deque.t;
  mutable current : thread option;
  mutable alloc_since_check : int;  (** progress towards the 4 kB check *)
  mutable alloc_in_area : int;  (** nursery fill *)
  mutable resident : int;  (** live data (distributed mode: per PE) *)
  mutable local_minors : int;
  mutable idle : bool;
  mutable in_barrier : bool;
  mutable barrier_join_ns : int;
  mutable in_local_gc : bool;
  mutable step_scheduled : bool;
  mutable spark_thread_live : bool;
  mutable blocked_threads : int;
  mutable last_push_poll : int;
  mutable barrier_notice_deadline : int;
      (** legacy sync: when this capability will notice a pending GC
          request from mutator code (-1 = not yet drawn) *)
  rng : Rng.t;
}

type gc_phase = No_gc | Requested | Collecting

type t = {
  cfg : Config.t;
  engine : Engine.t;
  trace : Trace.t;
  log : Eventlog.t;
  caps : cap array;
  reg : Node.registry;
  mutable gc_phase : gc_phase;
  mutable gc_request_ns : int;
  mutable barrier_joined : int;
  mutable shared_resident : int;  (** workload-declared live data *)
  mutable shared_survivors : int;  (** young data surviving since major *)
  mutable global_fill : int;  (** semi-distributed global heap fill *)
  mutable active_running : int;  (** caps currently in Running state *)
  mutable next_tid : int;
  mutable live_threads : int;
  mutable finished : bool;
  mutable finish_ns : int;
  mutable error : exn option;
  (* counters *)
  mutable minors : int;
  mutable majors : int;
  mutable pause_total : int;
  mutable barrier_wait : int;
  mutable max_pause : int;
  mutable sparks_created : int;
  mutable sparks_converted : int;
  mutable sparks_stolen : int;
  mutable sparks_pushed : int;
  mutable sparks_fizzled : int;
  mutable sparks_overflowed : int;
  mutable threads_created : int;
  mutable threads_stolen : int;
  mutable msgs_sent : int;
  mutable msg_bytes : int;
  rng : Rng.t;
}

exception Deadlock of string

(* ------------------------------------------------------------------ *)
(* Effects: the only ways thread code interacts with virtual time      *)
(* ------------------------------------------------------------------ *)

type _ Effect.t +=
  | Charge : Cost.t -> unit Effect.t
  | Block : ((unit -> unit) -> unit) -> unit Effect.t
        (** [Block register]: deschedule this thread; [register wake] is
            called once with the wake-up callback *)

(* The simulator is single-threaded and non-reentrant; the currently
   installed instance and the executing (cap, thread) live here so that
   the Api can reach them without explicit plumbing. *)
let installed : t option ref = ref None
let current_ctx : (cap * thread) option ref = ref None

let instance () =
  match !installed with
  | Some rts -> rts
  | None -> failwith "Rts: no simulation running"

let context () =
  match !current_ctx with
  | Some ctx -> ctx
  | None -> failwith "Rts: not inside a simulated thread"

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create (cfg : Config.t) =
  if cfg.ncaps <= 0 then invalid_arg "Rts.create: ncaps must be positive";
  let rng = Rng.create cfg.seed in
  let caps =
    Array.init cfg.ncaps (fun idx ->
        {
          idx;
          runq = Queue.create ();
          pool = Ws_deque.create ();
          current = None;
          alloc_since_check = 0;
          alloc_in_area = 0;
          resident = 0;
          local_minors = 0;
          idle = true;
          in_barrier = false;
          barrier_join_ns = 0;
          in_local_gc = false;
          step_scheduled = false;
          spark_thread_live = false;
          blocked_threads = 0;
          last_push_poll = 0;
          barrier_notice_deadline = -1;
          rng = Rng.split rng;
        })
  in
  let trace = Trace.create ~caps:cfg.ncaps in
  let log = Eventlog.create () in
  if not cfg.trace_enabled then begin
    Trace.disable trace;
    Eventlog.disable log
  end;
  {
    cfg;
    engine = Engine.create ();
    trace;
    log;
    caps;
    reg = Node.registry ();
    gc_phase = No_gc;
    gc_request_ns = 0;
    barrier_joined = 0;
    shared_resident = 0;
    shared_survivors = 0;
    global_fill = 0;
    active_running = 0;
    next_tid = 0;
    live_threads = 0;
    finished = false;
    finish_ns = 0;
    error = None;
    minors = 0;
    majors = 0;
    pause_total = 0;
    barrier_wait = 0;
    max_pause = 0;
    sparks_created = 0;
    sparks_converted = 0;
    sparks_stolen = 0;
    sparks_pushed = 0;
    sparks_fizzled = 0;
    sparks_overflowed = 0;
    threads_created = 0;
    threads_stolen = 0;
    msgs_sent = 0;
    msg_bytes = 0;
    rng;
  }

let now rts = Engine.now rts.engine
let registry rts = rts.reg
let config rts = rts.cfg

let emit rts ev = Eventlog.emit rts.log ~time:(Engine.now rts.engine) ev

(* ------------------------------------------------------------------ *)
(* Trace-state bookkeeping (also maintains the active-running count    *)
(* used by the core-oversubscription model)                            *)
(* ------------------------------------------------------------------ *)

let cap_state rts (c : cap) (st : Trace.state) =
  if not rts.finished then begin
    let old = Trace.state_of rts.trace c.idx in
    if old <> st then begin
      if old = Trace.Running then rts.active_running <- rts.active_running - 1;
      if st = Trace.Running then rts.active_running <- rts.active_running + 1;
      Trace.set_state rts.trace ~time:(now rts) ~cap:c.idx st
    end
  end

(* ------------------------------------------------------------------ *)
(* Cost model: cycles -> virtual ns on this capability, right now      *)
(* ------------------------------------------------------------------ *)

(* The nursery is streamed through rather than repeatedly revisited, so
   it contributes only fractionally to cache pressure; live (resident)
   data is what competes for cache. *)
let nursery_cache_fraction = 8

let working_set rts (c : cap) =
  let nursery = rts.cfg.gc.alloc_area / nursery_cache_fraction in
  match rts.cfg.heap_mode with
  | Config.Shared | Config.Semi_distributed _ ->
      ((rts.shared_resident + rts.shared_survivors) / rts.cfg.ncaps) + nursery
  | Config.Distributed _ -> c.resident + nursery

(* Mutator work is slowed by sharing cores, cache pressure and (shared
   heap) coherency traffic.  One function, so the factor stays an
   unboxed float. *)
let mutator_ns rts (c : cap) cycles =
  if cycles <= 0 then 0
  else
    let m = rts.cfg.machine in
    let base = Machine.ns_of_cycles m cycles in
    let share =
      if rts.cfg.ncaps > m.Machine.cores then
        let active = Int.max 1 rts.active_running in
        Float.max 1.0 (float_of_int active /. float_of_int m.Machine.cores)
      else 1.0
    in
    let penalty = Machine.mem_penalty m ~working_set:(working_set rts c) in
    let coherency =
      match rts.cfg.heap_mode with
      | Config.Shared ->
          1.0 +. (rts.cfg.coherency_base *. float_of_int (rts.cfg.ncaps - 1))
      | _ -> 1.0
    in
    Int.max 1
      (int_of_float
         (Float.round (float_of_int base *. (share *. penalty *. coherency))))

let cycles_of_ns rts ns = Machine.cycles_of_ns rts.cfg.machine ns

(* Mark every thunk the thread is in the middle of evaluating.  Under
   lazy black-holing this happens only here — at deschedule time — which
   is what opens the duplicate-evaluation window the paper studies. *)
let blackhole_update_stack rts th =
  match rts.cfg.blackholing with
  | Config.Eager_bh -> () (* already marked at entry *)
  | Config.Lazy_bh -> List.iter Node.blackhole_boxed th.update_stack

(* ------------------------------------------------------------------ *)
(* The scheduler: one mutually-recursive group                         *)
(* ------------------------------------------------------------------ *)

(* The thread's segment event is made with the thread, so scheduling a
   charge segment allocates nothing. *)
let rec make_thread rts ~cap ~spark_thread body =
  rts.next_tid <- rts.next_tid + 1;
  rts.threads_created <- rts.threads_created + 1;
  rts.live_threads <- rts.live_threads + 1;
  emit rts (Eventlog.Thread_created { tid = rts.next_tid; cap });
  let rec th =
    {
      tid = rts.next_tid;
      tstate = Runnable;
      resume = Start body;
      pending_cycles = 0;
      pending_alloc = 0;
      in_flight = false;
      seg_cycles = 0;
      seg_alloc = 0;
      end_segment =
        (fun () ->
          th.in_flight <- false;
          if not rts.finished then charge_segment_done rts rts.caps.(th.cap) th);
      update_stack = [];
      cap;
      slice_start = 0;
      is_spark_thread = spark_thread;
    }
  in
  th

and schedule_step rts (c : cap) ~delay =
  if not c.step_scheduled && not rts.finished then begin
    c.step_scheduled <- true;
    Engine.after rts.engine delay (fun () ->
        c.step_scheduled <- false;
        if not rts.finished then cap_step rts c)
  end

(* Scheduler entry for capability [c]: runs at thread switches, wakes,
   GC completion — everywhere GHC's scheduler loop would run. *)
and cap_step rts c =
  if c.in_barrier || c.in_local_gc then ()
  else if rts.gc_phase = Collecting then ()
  else if rts.gc_phase = Requested && uses_barrier rts then join_barrier rts c
  else begin
    (* Distributed mode: message arrivals may have filled the nursery. *)
    if
      (not (uses_barrier rts))
      && c.alloc_in_area >= rts.cfg.gc.alloc_area
    then local_gc rts c
    else begin
      if rts.cfg.load_balance = Config.Push_polling then push_surplus rts c;
      (* Threads never migrate between PEs in the distributed model:
         each PE is a separate sequential runtime (Sec. III-B). *)
      if rts.cfg.migrate_threads && uses_barrier rts then
        migrate_surplus_threads rts c;
      match c.current with
      | Some th -> if not th.in_flight then dispatch_current rts c th
      | None -> pick_work rts c
    end
  end

and uses_barrier rts =
  match rts.cfg.heap_mode with
  | Config.Shared | Config.Semi_distributed _ -> true
  | Config.Distributed _ -> false

and pick_work rts c =
  if Queue.length c.runq > 0 then begin
    let th = Queue.pop c.runq in
    start_running rts c th
  end
  else begin
    match rts.cfg.spark_runner with
    | Config.Spark_threads ->
        if (not c.spark_thread_live) && sparks_reachable rts c then begin
          c.spark_thread_live <- true;
          let th =
            make_thread rts ~cap:c.idx ~spark_thread:true
              (spark_thread_body rts c.idx)
          in
          start_running rts c th
        end
        else if not (steal_runnable_thread rts c) then make_idle rts c
    | Config.Thread_per_spark ->
        if not (activate_one_spark rts c) then
          if not (steal_runnable_thread rts c) then make_idle rts c
  end

(* Extension (Sec. IV-A.2: "work pulling could also be applied to
   threads"): an idle capability with no sparks anywhere pulls a
   runnable thread from another capability's run queue.  Shared-heap
   mode only — threads cannot cross PE heaps. *)
and steal_runnable_thread rts c =
  if
    (not rts.cfg.steal_threads)
    || rts.cfg.load_balance <> Config.Work_stealing
    || not (uses_barrier rts)
  then false
  else begin
    let n = Array.length rts.caps in
    let victims = Array.init n (fun i -> i) in
    Rng.shuffle_in_place c.rng victims;
    let found = ref None in
    Array.iter
      (fun v ->
        if !found = None && v <> c.idx then begin
          let vc = rts.caps.(v) in
          (* only steal from queues with surplus (> 0 waiting while the
             victim is already running something) *)
          if Queue.length vc.runq > 0 && vc.current <> None then begin
            let th = Queue.pop vc.runq in
            rts.threads_stolen <- rts.threads_stolen + 1;
            emit rts
              (Eventlog.Thread_migrated
                 { tid = th.tid; from_cap = v; to_cap = c.idx });
            found := Some th
          end
        end)
      victims;
    match !found with
    | Some th ->
        th.cap <- c.idx;
        start_running rts c th;
        true
    | None -> false
  end

and sparks_reachable rts c =
  Ws_deque.size c.pool > 0
  || (rts.cfg.load_balance = Config.Work_stealing
     && Array.exists (fun c' -> Ws_deque.size c'.pool > 0) rts.caps)

(* Take a spark: own pool first, then (in stealing mode) other pools in
   random victim order.  Returns the spark and the virtual-time cost of
   acquiring it. *)
and take_spark rts c =
  match Ws_deque.pop c.pool with
  | Some s -> Some (s, 0)
  | None ->
      if rts.cfg.load_balance <> Config.Work_stealing then None
      else begin
        let n = Array.length rts.caps in
        let victims = Array.init n (fun i -> i) in
        Rng.shuffle_in_place c.rng victims;
        let found = ref None in
        let attempts = ref 0 in
        Array.iter
          (fun v ->
            if !found = None && v <> c.idx then begin
              incr attempts;
              match Ws_deque.steal rts.caps.(v).pool with
              | Some s ->
                  rts.sparks_stolen <- rts.sparks_stolen + 1;
                  emit rts (Eventlog.Spark_stolen { thief = c.idx });
                  found := Some s
              | None -> ()
            end)
          victims;
        match !found with
        | Some s -> Some (s, !attempts * rts.cfg.steal_attempt_ns)
        | None -> None
      end

(* Thread-per-spark activation: convert the next useful spark into a
   fresh thread (paying creation cost) and run it. *)
and activate_one_spark rts c =
  match take_spark rts c with
  | None -> false
  | Some (s, delay_ns) ->
      if s.still_needed () then begin
        rts.sparks_converted <- rts.sparks_converted + 1;
        emit rts (Eventlog.Spark_converted { cap = c.idx });
        let overhead = delay_ns + rts.cfg.thread_create_ns in
        let body () =
          Effect.perform (Charge (Cost.cycles (cycles_of_ns rts overhead)));
          s.run ()
        in
        let th = make_thread rts ~cap:c.idx ~spark_thread:false body in
        start_running rts c th;
        true
      end
      else begin
        rts.sparks_fizzled <- rts.sparks_fizzled + 1;
        emit rts (Eventlog.Spark_fizzled { cap = c.idx });
        activate_one_spark rts c
      end

(* Dedicated spark-thread body (Sec. IV-A.4): drain sparks — local pool
   first, stealing when allowed — until none are reachable or a real
   thread wants the capability; then exit. *)
and spark_thread_body rts cap_idx () =
  let c = rts.caps.(cap_idx) in
  let rec loop () =
    if Queue.length c.runq > 0 then () (* yield the capability *)
    else
      match take_spark rts c with
      | None -> ()
      | Some (s, delay_ns) ->
          if delay_ns > 0 then
            Effect.perform (Charge (Cost.cycles (cycles_of_ns rts delay_ns)));
          if s.still_needed () then begin
            rts.sparks_converted <- rts.sparks_converted + 1;
            emit rts (Eventlog.Spark_converted { cap = cap_idx });
            s.run ()
          end
          else begin
            rts.sparks_fizzled <- rts.sparks_fizzled + 1;
            emit rts (Eventlog.Spark_fizzled { cap = cap_idx })
          end;
          loop ()
  in
  loop ()

(* Push-polling load balancing (GHC 6.8.x): a busy capability's
   scheduler gives one surplus spark to each idle capability.  A
   capability with no other work keeps one spark for itself, otherwise
   freshly-pushed sparks would ping-pong between idle capabilities. *)
and push_surplus rts c =
  let keep =
    if c.current = None && Queue.is_empty c.runq then 1 else 0
  in
  if Ws_deque.size c.pool > keep then
    Array.iter
      (fun c' ->
        if
          c'.idx <> c.idx && c'.idle
          && (not c'.in_barrier)
          && Ws_deque.size c'.pool = 0
          && Ws_deque.size c.pool > keep
        then
          (* GHC's schedulePushWork hands out sparks from the steal end
             of its own pool (oldest first), same as remote thieves. *)
          match Ws_deque.steal c.pool with
          | Some s ->
              Ws_deque.push c'.pool s;
              rts.sparks_pushed <- rts.sparks_pushed + 1;
              schedule_step rts c' ~delay:rts.cfg.push_handshake_ns
          | None -> ())
      rts.caps

(* Surplus runnable threads are pushed to idle capabilities in both
   balancing modes (the paper: "surplus threads are still pushed
   actively to other capabilities"). *)
and migrate_surplus_threads rts c =
  let surplus () =
    Queue.length c.runq > if c.current = None then 1 else 0
  in
  Array.iter
    (fun c' ->
      if c'.idx <> c.idx && c'.idle && (not c'.in_barrier) && surplus ()
      then begin
        let th = Queue.pop c.runq in
        emit rts
          (Eventlog.Thread_migrated
             { tid = th.tid; from_cap = c.idx; to_cap = c'.idx });
        th.cap <- c'.idx;
        Queue.push th c'.runq;
        schedule_step rts c' ~delay:rts.cfg.push_handshake_ns
      end)
    rts.caps

and make_idle rts c =
  c.idle <- true;
  cap_state rts c (if c.blocked_threads > 0 then Trace.Blocked else Trace.Idle);
  (* If a GC is pending, an idle capability joins the barrier at once:
     it is trivially at a safepoint. *)
  if rts.gc_phase = Requested && uses_barrier rts then join_barrier rts c

and start_running rts c th =
  c.idle <- false;
  c.current <- Some th;
  th.cap <- c.idx;
  th.tstate <- Running;
  th.slice_start <- now rts;
  cap_state rts c Trace.Running;
  dispatch_current rts c th

(* Resume the capability's current thread: finish any outstanding
   charge first, then continue the fiber. *)
and dispatch_current rts c th =
  c.idle <- false;
  cap_state rts c Trace.Running;
  if th.pending_cycles <> 0 || th.pending_alloc <> 0 then begin_charge rts c th
  else continue_fiber rts c th

and continue_fiber rts c th =
  match th.resume with
  | Consumed ->
      (* Nothing to continue: only possible through scheduler bugs. *)
      assert false
  | Start f ->
      th.resume <- Consumed;
      let prev = !current_ctx in
      current_ctx := Some (c, th);
      Effect.Deep.match_with f () (handler rts th);
      current_ctx := prev
  | Resume k ->
      th.resume <- Consumed;
      let prev = !current_ctx in
      current_ctx := Some (c, th);
      Effect.Deep.continue k ();
      current_ctx := prev

and handler : 'a. t -> thread -> (unit, unit) Effect.Deep.handler =
 fun rts th ->
  {
    retc = (fun () -> finish_thread rts th);
    exnc =
      (fun e ->
        rts.error <- Some e;
        rts.finished <- true;
        Engine.stop rts.engine);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Charge cost ->
            Some
              (fun (k : (b, unit) Effect.Deep.continuation) ->
                th.resume <- Resume k;
                th.pending_cycles <- cost.Cost.cycles;
                th.pending_alloc <- cost.Cost.alloc;
                let c = rts.caps.(th.cap) in
                begin_charge rts c th)
        | Block register ->
            Some
              (fun (k : (b, unit) Effect.Deep.continuation) ->
                th.resume <- Resume k;
                th.tstate <- Blocked;
                emit rts (Eventlog.Thread_blocked { tid = th.tid; cap = th.cap });
                blackhole_update_stack rts th;
                let c = rts.caps.(th.cap) in
                c.blocked_threads <- c.blocked_threads + 1;
                c.current <- None;
                (* A blocked spark thread must not prevent the scheduler
                   from creating a fresh one (Sec. IV-A.4). *)
                if th.is_spark_thread then c.spark_thread_live <- false;
                schedule_step rts c ~delay:0;
                register (fun () -> wake_thread rts th))
        | _ -> None);
  }

and finish_thread rts th =
  th.tstate <- Finished;
  emit rts (Eventlog.Thread_finished { tid = th.tid; cap = th.cap });
  rts.live_threads <- rts.live_threads - 1;
  let c = rts.caps.(th.cap) in
  if th.is_spark_thread then c.spark_thread_live <- false;
  c.current <- None;
  schedule_step rts c ~delay:0

and wake_thread rts th =
  match th.tstate with
  | Blocked ->
      th.tstate <- Runnable;
      emit rts (Eventlog.Thread_woken { tid = th.tid; cap = th.cap });
      let c = rts.caps.(th.cap) in
      c.blocked_threads <- Int.max 0 (c.blocked_threads - 1);
      Queue.push th c.runq;
      if c.current = None then schedule_step rts c ~delay:0
  | Runnable | Running | Finished -> ()

(* --- charging ---------------------------------------------------- *)

(* One segment of the thread's pending charge is one engine event: all
   of it, or, when it allocates past the next 4 kB check, the part up
   to that check. *)
and begin_charge rts c th =
  if th.pending_cycles = 0 && th.pending_alloc = 0 then continue_fiber rts c th
  else begin
    assert (not th.in_flight);
    let to_boundary = rts.cfg.gc.check_interval - c.alloc_since_check in
    let whole = th.pending_alloc = 0 || th.pending_alloc <= to_boundary in
    th.seg_cycles <-
      (if whole then th.pending_cycles
       else th.pending_cycles * to_boundary / th.pending_alloc);
    th.seg_alloc <- (if whole then th.pending_alloc else to_boundary);
    th.in_flight <- true;
    Engine.after rts.engine
      (Int.max 1 (mutator_ns rts c th.seg_cycles))
      th.end_segment
  end

(* The segment's event: [c] is the thread's capability, which an
   in-flight thread cannot leave. *)
and charge_segment_done rts c th =
  c.alloc_since_check <- c.alloc_since_check + th.seg_alloc;
  c.alloc_in_area <- c.alloc_in_area + th.seg_alloc;
  th.pending_cycles <- Int.max 0 (th.pending_cycles - th.seg_cycles);
  th.pending_alloc <- Int.max 0 (th.pending_alloc - th.seg_alloc);
  let interval = rts.cfg.gc.check_interval in
  let boundary = c.alloc_since_check >= interval in
  if boundary then c.alloc_since_check <- c.alloc_since_check mod interval;
  (* Safepoint checks happen only at the allocation boundary — the
     paper's Sec. IV-A.1 point about slow allocators delaying GC. *)
  let descheduled = ref false in
  if boundary then begin
    if uses_barrier rts then begin
      if c.alloc_in_area >= rts.cfg.gc.alloc_area && rts.gc_phase = No_gc
      then request_gc rts;
      if rts.gc_phase = Requested then begin
        (* Under legacy sync, mutator code only reacts to the request
           at a scheduler-entry point, up to a timer quantum away
           (Sec. IV-A.1: "the GC barrier will therefore be delayed").
           Improved sync reacts at this very allocation check.  A full
           nursery forces the stop in either mode. *)
        let join_now =
          match rts.cfg.gc.Gc_model.sync with
          | Gc_model.Improved -> true
          | Gc_model.Legacy ->
              if c.barrier_notice_deadline < 0 then begin
                c.barrier_notice_deadline <-
                  now rts + Rng.int c.rng rts.cfg.gc.Gc_model.legacy_notice_ns;
                c.alloc_in_area >= rts.cfg.gc.alloc_area
              end
              else
                now rts >= c.barrier_notice_deadline
                || c.alloc_in_area >= rts.cfg.gc.alloc_area
        in
        if join_now then begin
          blackhole_update_stack rts th;
          join_barrier rts c;
          descheduled := true
        end
      end
    end
    else if c.alloc_in_area >= rts.cfg.gc.alloc_area then begin
      local_gc rts c;
      descheduled := true
    end;
    if not !descheduled then begin
      if
        rts.cfg.load_balance = Config.Push_polling
        && now rts - c.last_push_poll >= rts.cfg.push_poll_interval_ns
      then begin
        c.last_push_poll <- now rts;
        push_surplus rts c;
        if rts.cfg.migrate_threads && uses_barrier rts then
          migrate_surplus_threads rts c;
        (* the polling scheduler entry itself costs mutator time *)
        th.pending_cycles <-
          th.pending_cycles + cycles_of_ns rts rts.cfg.sched_poll_ns
      end;
      if now rts - th.slice_start >= rts.cfg.timeslice_ns then begin
        (* Timer tick: the thread passes through the scheduler, its
           stack is scanned and in-progress thunks are black-holed
           (this bounds the lazy duplicate-evaluation window to one
           timeslice).  Rotate the run queue if anyone is waiting. *)
        blackhole_update_stack rts th;
        th.slice_start <- now rts;
        if Queue.length c.runq > 0 then begin
          th.tstate <- Runnable;
          Queue.push th c.runq;
          c.current <- None;
          descheduled := true;
          schedule_step rts c ~delay:0
        end
      end
    end
  end;
  if not !descheduled then begin_charge rts c th

(* --- garbage collection ------------------------------------------ *)

and request_gc rts =
  rts.gc_phase <- Requested;
  rts.gc_request_ns <- now rts;
  emit rts (Eventlog.Gc_requested { cap = -1 });
  (* Idle capabilities are at a safepoint already and join at once. *)
  Array.iter
    (fun c -> if c.idle && not c.in_barrier then join_barrier rts c)
    rts.caps

and join_barrier rts c =
  if not c.in_barrier then begin
    (match c.current with
    | Some th -> blackhole_update_stack rts th
    | None -> ());
    c.in_barrier <- true;
    c.idle <- false;
    c.barrier_join_ns <- now rts;
    cap_state rts c Trace.Runnable;
    rts.barrier_joined <- rts.barrier_joined + 1;
    if rts.barrier_joined = rts.cfg.ncaps then start_gc rts
  end

and start_gc rts =
  rts.gc_phase <- Collecting;
  let allocated = Array.fold_left (fun a c -> a + c.alloc_in_area) 0 rts.caps in
  Array.iter
    (fun c ->
      rts.barrier_wait <- rts.barrier_wait + (now rts - c.barrier_join_ns);
      cap_state rts c Trace.Gc)
    rts.caps;
  rts.minors <- rts.minors + 1;
  let gc = rts.cfg.gc in
  let is_major = rts.minors mod gc.Gc_model.major_every = 0 in
  emit rts (Eventlog.Gc_started { minors = rts.minors; major = is_major });
  let pause =
    if is_major then begin
      rts.majors <- rts.majors + 1;
      let resident = rts.shared_resident + rts.shared_survivors in
      Gc_model.major_pause_ns gc ~ncaps:rts.cfg.ncaps ~resident
    end
    else Gc_model.minor_pause_ns gc ~ncaps:rts.cfg.ncaps ~allocated
  in
  (* Gen-1 occupancy: fresh survivors join, older survivors mostly die
     (exponential decay), a major collection empties it. *)
  if is_major then rts.shared_survivors <- 0
  else
    rts.shared_survivors <-
      (rts.shared_survivors / 2)
      + int_of_float (gc.Gc_model.survival *. float_of_int allocated *. 0.5);
  rts.global_fill <- 0;
  rts.pause_total <- rts.pause_total + pause;
  if pause > rts.max_pause then rts.max_pause <- pause;
  Engine.after rts.engine pause (fun () -> if not rts.finished then gc_done rts)

and gc_done rts =
  rts.gc_phase <- No_gc;
  rts.barrier_joined <- 0;
  emit rts Eventlog.Gc_finished;
  Array.iter
    (fun c ->
      c.in_barrier <- false;
      c.alloc_in_area <- 0;
      c.alloc_since_check <- 0;
      c.barrier_notice_deadline <- -1;
      (* joining the barrier cleared [idle]; a capability with nothing
         to run is a push target again as soon as the GC is over *)
      c.idle <- c.current = None && Queue.is_empty c.runq)
    rts.caps;
  (* Every capability's scheduler runs right after a collection; in
     push mode this is a prime work-distribution opportunity (and why
     frequent GC partially masks the push-polling delay). *)
  if rts.cfg.load_balance = Config.Push_polling then
    Array.iter
      (fun c ->
        c.last_push_poll <- now rts;
        push_surplus rts c)
      rts.caps;
  Array.iter
    (fun c ->
      match c.current with
      | Some th -> dispatch_current rts c th
      | None -> schedule_step rts c ~delay:0)
    rts.caps

(* Independent per-PE collection (distributed heaps): pause only this
   capability; no barrier, no cross-PE synchronisation. *)
and local_gc rts c =
  c.local_minors <- c.local_minors + 1;
  rts.minors <- rts.minors + 1;
  let gc = rts.cfg.gc in
  let is_major = c.local_minors mod gc.Gc_model.major_every = 0 in
  if is_major then rts.majors <- rts.majors + 1;
  let pause =
    Gc_model.independent_pause_ns gc ~allocated:c.alloc_in_area
      ~resident:c.resident ~is_major
  in
  rts.pause_total <- rts.pause_total + pause;
  if pause > rts.max_pause then rts.max_pause <- pause;
  c.in_local_gc <- true;
  emit rts (Eventlog.Gc_started { minors = rts.minors; major = is_major });
  cap_state rts c Trace.Gc;
  Engine.after rts.engine pause (fun () ->
      c.in_local_gc <- false;
      c.alloc_in_area <- 0;
      c.alloc_since_check <- 0;
      emit rts Eventlog.Gc_finished;
      if not rts.finished then begin
        match c.current with
        | Some th -> dispatch_current rts c th
        | None -> schedule_step rts c ~delay:0
      end)

(* --- sparks and spawning ------------------------------------------ *)

and push_spark rts c s =
  if Ws_deque.size c.pool >= rts.cfg.spark_pool_capacity then begin
    (* GHC's spark pool is a fixed ring buffer: overflowing sparks are
       silently dropped (potential parallelism lost, not an error) *)
    rts.sparks_overflowed <- rts.sparks_overflowed + 1;
    emit rts (Eventlog.Spark_overflowed { cap = c.idx })
  end
  else begin
    Ws_deque.push c.pool s;
    rts.sparks_created <- rts.sparks_created + 1;
    emit rts (Eventlog.Spark_created { cap = c.idx });
    if rts.cfg.load_balance = Config.Work_stealing then wake_stalled rts
  end

and wake_stalled rts =
  Array.iter
    (fun c' ->
      if c'.idle && not c'.in_barrier then
        schedule_step rts c' ~delay:rts.cfg.steal_wake_ns)
    rts.caps

and spawn_raw rts ~cap body =
  let c = rts.caps.(cap) in
  let th = make_thread rts ~cap ~spark_thread:false body in
  Queue.push th c.runq;
  if c.current = None then schedule_step rts c ~delay:0
  else if rts.cfg.steal_threads then
    (* surplus runnable work appeared: let stalled caps pull it *)
    wake_stalled rts;
  th.tid

(* --- messages (distributed mode) ---------------------------------- *)

and send_message rts ~dst ~bytes deliver =
  let tr =
    match rts.cfg.heap_mode with
    | Config.Distributed tr -> tr
    | _ -> invalid_arg "Rts.send_message: not in distributed mode"
  in
  rts.msgs_sent <- rts.msgs_sent + 1;
  rts.msg_bytes <- rts.msg_bytes + bytes;
  emit rts
    (Eventlog.Message_sent
       { src = (match !current_ctx with Some (c, _) -> c.idx | None -> -1);
         dst; bytes });
  let flight = Transport.flight_ns tr bytes + Transport.recv_side_ns tr bytes in
  Engine.after rts.engine flight (fun () ->
      if not rts.finished then begin
        let c = rts.caps.(dst) in
        (* the received graph is allocated in the receiver's heap *)
        c.alloc_in_area <- c.alloc_in_area + bytes;
        emit rts (Eventlog.Message_delivered { dst; bytes });
        deliver ()
      end)

(* ------------------------------------------------------------------ *)
(* Running a program                                                   *)
(* ------------------------------------------------------------------ *)

let diagnostics rts =
  let blocked = ref 0 and runnable = ref 0 in
  Array.iter
    (fun c ->
      runnable := !runnable + Queue.length c.runq;
      blocked := !blocked + c.blocked_threads)
    rts.caps;
  Printf.sprintf
    "deadlock at t=%dns: %d live threads (%d blocked, %d queued), gc=%s, \
     barrier=%d/%d"
    (now rts) rts.live_threads !blocked !runnable
    (match rts.gc_phase with
    | No_gc -> "none"
    | Requested -> "requested"
    | Collecting -> "collecting")
    rts.barrier_joined rts.cfg.ncaps

let report rts : Report.t =
  {
    elapsed_ns = rts.finish_ns;
    gc =
      {
        minors = rts.minors;
        majors = rts.majors;
        pause_total_ns = rts.pause_total;
        barrier_wait_ns = rts.barrier_wait;
        max_pause_ns = rts.max_pause;
      };
    sparks =
      {
        created = rts.sparks_created;
        converted = rts.sparks_converted;
        stolen = rts.sparks_stolen;
        pushed = rts.sparks_pushed;
        fizzled = rts.sparks_fizzled;
        overflowed = rts.sparks_overflowed;
      };
    messages = { sent = rts.msgs_sent; bytes = rts.msg_bytes };
    threads_created = rts.threads_created;
    threads_stolen = rts.threads_stolen;
    dup_work_entries = rts.reg.Node.dup_entries;
    blocked_forces = rts.reg.Node.blocked_forces;
    utilisation = Repro_trace.Trace.utilisation rts.trace;
    engine_events = Engine.dispatched rts.engine;
    trace = rts.trace;
    eventlog = rts.log;
  }

let run (cfg : Config.t) (main : unit -> 'a) : 'a * Report.t =
  (match !installed with
  | Some _ -> failwith "Rts.run: nested simulations are not supported"
  | None -> ());
  let rts = create cfg in
  installed := Some rts;
  Fun.protect
    ~finally:(fun () ->
      installed := None;
      current_ctx := None)
    (fun () ->
      let result = ref None in
      let main_body () =
        let v = main () in
        result := Some v;
        rts.finish_ns <- now rts;
        Repro_trace.Trace.finish rts.trace ~time:rts.finish_ns;
        rts.finished <- true
      in
      ignore (spawn_raw rts ~cap:0 main_body);
      ignore (Engine.run rts.engine);
      (match rts.error with Some e -> raise e | None -> ());
      match !result with
      | None -> raise (Deadlock (diagnostics rts))
      | Some v -> (v, report rts))

(* ------------------------------------------------------------------ *)
(* Api: operations available to simulated thread code                  *)
(* ------------------------------------------------------------------ *)

module Api = struct
  let charge cost = Effect.perform (Charge cost)

  let charge_ns ns =
    if ns > 0 then charge (Cost.cycles (cycles_of_ns (instance ()) ns))

  let block register = Effect.perform (Block register)
  let my_cap () = (fst (context ())).idx
  let now_ns () = now (instance ())
  let ncaps () = (instance ()).cfg.ncaps
  let config () = (instance ()).cfg
  let registry () = (instance ()).reg
  let rng () = (fst (context ())).rng
  let blackholing () = (instance ()).cfg.blackholing

  (* GpH [par]: record a spark in the current capability's pool. *)
  let spark ~still_needed run =
    let rts = instance () in
    charge rts.cfg.spark_cost;
    (match rts.cfg.heap_mode with
    | Config.Semi_distributed { promote_ns_per_byte; _ } ->
        (* Sharing work through the global heap promotes the sparked
           subgraph (Sec. VI-A): charge the promotion and fill the
           global heap. *)
        let bytes = 128 in
        charge_ns (int_of_float (promote_ns_per_byte *. float_of_int bytes));
        rts.global_fill <- rts.global_fill + bytes;
        (match rts.cfg.heap_mode with
        | Config.Semi_distributed { global_area; _ }
          when rts.global_fill >= global_area && rts.gc_phase = No_gc ->
            request_gc rts
        | _ -> ())
    | _ -> ());
    let c, _ = context () in
    push_spark rts c { run; still_needed }

  let spawn ?cap body =
    let rts = instance () in
    charge (Cost.cycles (cycles_of_ns rts rts.cfg.thread_create_ns));
    let cap = match cap with Some c -> c | None -> my_cap () in
    spawn_raw rts ~cap body

  (* Declare live data so the GC and cache models see it. *)
  let set_resident bytes =
    let rts = instance () in
    match rts.cfg.heap_mode with
    | Config.Distributed _ -> (fst (context ())).resident <- bytes
    | _ -> rts.shared_resident <- bytes

  let set_resident_global bytes =
    let rts = instance () in
    rts.shared_resident <- bytes

  let set_resident_of ~cap bytes =
    let rts = instance () in
    rts.caps.(cap).resident <- bytes

  (* Send [bytes] to PE [dst]; the sender pays packing costs, the
     receiver's heap receives the data, then [deliver] runs there. *)
  let send ~dst ~bytes deliver =
    let rts = instance () in
    let tr =
      match rts.cfg.heap_mode with
      | Config.Distributed tr -> tr
      | _ -> invalid_arg "Api.send: not in distributed mode"
    in
    charge_ns (Transport.send_side_ns tr bytes);
    send_message rts ~dst ~bytes deliver

  (* Update-stack manipulation used by the GpH force implementation. *)
  let push_update boxed =
    let _, th = context () in
    th.update_stack <- boxed :: th.update_stack

  let pop_update () =
    let _, th = context () in
    match th.update_stack with
    | [] -> failwith "Api.pop_update: empty update stack"
    | _ :: rest -> th.update_stack <- rest
end
