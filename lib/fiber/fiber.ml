(** Effects-based fiber runtime over the {!Repro_exec.Pool} domain
    pool: multiplex 100k+ suspendable tasks on N domains.

    The paper's task model is a {e spark} — an atomic closure that runs
    to completion, so one blocked task wedges an entire capability.
    This module supplies the other half of OCaml 5's design split
    ("Retrofitting Parallelism onto OCaml", PAPERS.md): domains for
    parallelism, effects for concurrency.  A {e fiber} is a computation
    that can suspend; its continuation is a heap value that travels
    through the pool's existing Chase–Lev deques like any other task,
    so stealing, parking and tracing all keep working unchanged.

    Scheduling model:

    - every fiber segment (from birth or resume to the next suspension
      point) is a plain [unit -> unit] pool task, executed by the
      worker loop under the fiber's effect handler
      ([Effect.Deep.match_with] installed at {!spawn});
    - [perform Suspend] captures the one-shot continuation, wraps its
      resume in {!Promise.once} (so a racing canceller cannot double
      resume), parks it on the fiber record and hands it to the waker
      — for {!await} that is {!Promise.add_waiter}'s CAS list, whose
      protocol [lib/check] model-checks (the resume-before-park mutant
      deadlocks; the production order cannot lose the wakeup);
    - resumes of unpinned fibers re-enter the pool through
      [Pool.push_plain] onto the resuming worker's own deque — LIFO hot
      and {e stealable}, so a burst of wakeups rebalances across
      domains; pinned fibers and {!yield}s go through the FIFO inbox
      lane ([Pool.inject_on]) instead, because re-pushing a yield onto
      the owner's LIFO deque would pop it right back and starve
      everything below it.

    A fiber blocked on a promise therefore costs its domain nothing:
    the worker that ran it simply takes the next task.  The domain only
    parks when every deque and inbox is empty — the pool's existing
    wake-generation handshake. *)

module A = Repro_shim.Tatomic.Real
module M = Repro_metrics.Metrics
module Pool = Repro_exec.Pool

exception Cancelled

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
        (** [Suspend register]: capture the continuation, build the
            once-wrapped resume and pass it to [register], which hands
            it to whatever will eventually fire it. *)
  | Yield : unit Effect.t

(* Deadline timer shared by every [sleep] in one scheduler: a single
   service domain (spawned lazily on first use) owns a deadline-sorted
   queue and fires the once-wrapped resumes as deadlines pass.  Fired
   resumes re-enter the pool like any other wakeup. *)
type timer = {
  t_lock : Mutex.t;
  t_cond : Condition.t;
  mutable t_queue : (int * (unit -> unit)) list;  (* (deadline_ns, fire), sorted *)
  mutable t_stop : bool;
  mutable t_dom : unit Domain.t option;
}

type sched = {
  pool : Pool.t;
  next_fid : int A.t;
  spawned : int A.t;
  completed : int A.t;  (* finished with a value *)
  cancelled : int A.t;  (* finished by cancellation *)
  failed : int A.t;  (* finished with any other exception *)
  suspends : int A.t;
  resumes : int A.t;
  yields : int A.t;
  live : int A.t;
  high_water : int A.t;
  lifetime : M.histogram;
  timer : timer;
  mutable mtoken : M.collector option;
}

type fiber = {
  fid : int;
  sched : sched;
  pin : int option;  (* worker id this fiber is pinned to, if any *)
  cancelled_f : bool A.t;
  parked : (unit -> unit) option A.t;
      (* the once-wrapped resume while suspended: a canceller exchanges
         it out and fires it, waking the fiber into [discontinue] *)
  kids : (Mutex.t * (int, fiber) Hashtbl.t) option A.t;
      (* children registry for cancellation propagation; created lazily
         by the owner on first spawn (atomic cell + mutex so a racing
         canceller sees both the registry and its contents — see
         [do_cancel]) *)
  parent : fiber option;
  birth_ns : int;
}

type 'a handle = { h_fb : fiber; h_done : 'a Promise.t }

type stats = {
  s_spawned : int;
  s_completed : int;
  s_cancelled : int;
  s_failed : int;
  s_suspends : int;
  s_resumes : int;
  s_yields : int;
  s_live : int;
  s_high_water : int;
}

(* ------------------------------------------------------------------ *)
(* Current fiber                                                       *)
(* ------------------------------------------------------------------ *)

(* Set around every fiber segment (first run and each resume), on
   whichever domain executes it; restored when the segment suspends or
   finishes, so plain pool tasks interleaved on the same worker never
   observe a stale fiber binding. *)
let current_key : fiber option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get current_key

let self_exn name =
  match current () with
  | Some fb -> fb
  | None -> invalid_arg (name ^ ": not running inside Fiber.run")

let with_fiber fb g =
  let saved = Domain.DLS.get current_key in
  Domain.DLS.set current_key (Some fb);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key saved) g

(* Cancellation is visible transitively: a child spawned in the window
   while its parent's registry snapshot was being taken still observes
   the ancestor's flag at its next suspension point. *)
let rec tainted fb =
  A.get fb.cancelled_f
  || match fb.parent with Some p -> tainted p | None -> false

(* ------------------------------------------------------------------ *)
(* Enqueueing fiber segments into the pool                             *)
(* ------------------------------------------------------------------ *)

(* Starts and promise-wakeups: stealable when unpinned (own deque via
   push_plain), inbox when pinned or fired from outside the pool. *)
let enqueue fb task =
  let pool = fb.sched.pool in
  match fb.pin with
  | Some i -> Pool.inject_on pool i task
  | None -> (
      match Pool.current () with
      | Some ctx when Pool.ctx_pool ctx == pool -> Pool.push_plain ctx task
      | _ -> Pool.inject pool task)

(* Yields: always the FIFO inbox lane of the current (or pinned)
   worker, so the yielder goes to the back of the line instead of being
   LIFO-popped straight back. *)
let enqueue_yield fb task =
  let pool = fb.sched.pool in
  match fb.pin with
  | Some i -> Pool.inject_on pool i task
  | None -> (
      match Pool.current () with
      | Some ctx when Pool.ctx_pool ctx == pool ->
          Pool.inject_on pool (Pool.ctx_id ctx) task
      | _ -> Pool.inject pool task)

(* ------------------------------------------------------------------ *)
(* Lifecycle accounting                                                *)
(* ------------------------------------------------------------------ *)

let bump_live s =
  let l = A.fetch_and_add s.live 1 + 1 in
  let rec raise_hw () =
    let h = A.get s.high_water in
    if l > h && not (A.compare_and_set s.high_water h l) then raise_hw ()
  in
  raise_hw ()

let finish fb res on_done =
  let s = fb.sched in
  (match res with
  | Ok _ -> A.incr s.completed
  | Error Cancelled -> A.incr s.cancelled
  | Error _ -> A.incr s.failed);
  if M.enabled M.default then M.observe s.lifetime (M.now_ns () - fb.birth_ns);
  (* Unregister from the parent so a long-lived parent's registry does
     not accumulate dead children. *)
  (match fb.parent with
  | Some p -> (
      match A.get p.kids with
      | Some (kl, kt) ->
          Mutex.lock kl;
          Hashtbl.remove kt fb.fid;
          Mutex.unlock kl
      | None -> ())
  | None -> ());
  (* Resolve before the live decrement: a driver that has seen
     [live = 0] must also see every completion value. *)
  on_done res;
  A.decr s.live

(* ------------------------------------------------------------------ *)
(* Suspension points                                                   *)
(* ------------------------------------------------------------------ *)

(* Resume a parked segment: re-check cancellation on the way in so a
   fiber cancelled while suspended wakes into Cancelled (running its
   Fun.protect cleanups) instead of its normal continuation. *)
let step fb (k : (unit, unit) Effect.Deep.continuation) () =
  with_fiber fb (fun () ->
      if tainted fb then Effect.Deep.discontinue k Cancelled
      else Effect.Deep.continue k ())

let on_suspend fb register (k : (unit, unit) Effect.Deep.continuation) =
  let s = fb.sched in
  A.incr s.suspends;
  let resume =
    Promise.once (fun () ->
        A.incr s.resumes;
        A.set fb.parked None;
        enqueue fb (step fb k))
  in
  (* Publish the parked resume *before* handing it to the waker and
     before the cancellation re-check: a canceller either finds it in
     [parked] (and fires it) or set [cancelled_f] early enough for the
     re-check below to fire it ourselves.  The once-guard makes the
     double-fire benign.  [lib/check]'s resume-before-park mutant shows
     the reverse order losing the wakeup. *)
  A.set fb.parked (Some resume);
  register resume;
  if A.get fb.cancelled_f then resume ()

let on_yield fb (k : (unit, unit) Effect.Deep.continuation) =
  A.incr fb.sched.yields;
  enqueue_yield fb (step fb k)

(* Launch a fiber: its whole life runs under this handler, segment by
   segment, on whatever workers pick the segments up. *)
let start fb comp on_done =
  let task () =
    with_fiber fb (fun () ->
        Effect.Deep.match_with
          (fun () ->
            if tainted fb then raise Cancelled;
            comp ())
          ()
          {
            retc = (fun v -> finish fb (Ok v) on_done);
            exnc = (fun e -> finish fb (Error e) on_done);
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Suspend register ->
                    Some
                      (fun (k : (a, _) Effect.Deep.continuation) ->
                        on_suspend fb register k)
                | Yield ->
                    Some
                      (fun (k : (a, _) Effect.Deep.continuation) ->
                        on_yield fb k)
                | _ -> None);
          })
  in
  enqueue fb task

(* ------------------------------------------------------------------ *)
(* Public suspension API                                               *)
(* ------------------------------------------------------------------ *)

let[@sanctioned_blocking] rec await p =
  match Promise.peek p with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None ->
      ignore (self_exn "Fiber.await");
      Effect.perform (Suspend (fun resume -> Promise.add_waiter p resume));
      (* A resume fired by a canceller re-enters via [discontinue], so
         reaching this point means the promise resolved; the loop only
         re-suspends on a spurious wakeup. *)
      await p

let[@sanctioned_blocking] yield () =
  ignore (self_exn "Fiber.yield");
  Effect.perform Yield

(* ------------------------------------------------------------------ *)
(* Sleep (deadline timer service domain)                               *)
(* ------------------------------------------------------------------ *)

let rec insert_deadline ((d, _) as entry) = function
  | [] -> [ entry ]
  | ((d', _) as hd) :: tl ->
      if d <= d' then entry :: hd :: tl else hd :: insert_deadline entry tl

(* The timer domain's drain loop: a dedicated *service* domain, not a
   pool worker — parking on its condition variable (queue empty) and
   micro-sleeping toward the earliest deadline are its designed
   blocking points, hence the sanctioned_blocking marker. *)
let[@sanctioned_blocking] rec timer_loop tm =
  Mutex.lock tm.t_lock;
  let action =
    if tm.t_stop then `Stop
    else
      match tm.t_queue with
      | [] -> `Wait
      | (deadline, fire) :: rest ->
          let now = M.now_ns () in
          if deadline <= now then begin
            tm.t_queue <- rest;
            `Fire fire
          end
          else `Sleep (deadline - now)
  in
  (match action with `Wait -> Condition.wait tm.t_cond tm.t_lock | _ -> ());
  Mutex.unlock tm.t_lock;
  match action with
  | `Stop -> ()
  | `Wait -> timer_loop tm
  | `Fire fire ->
      fire ();
      timer_loop tm
  | `Sleep ns ->
      (* chunked so a newly inserted earlier deadline or a stop request
         is noticed within 2 ms *)
      Unix.sleepf (Float.min (float_of_int ns *. 1e-9) 2e-3);
      timer_loop tm

let timer_create () =
  {
    t_lock = Mutex.create ();
    t_cond = Condition.create ();
    t_queue = [];
    t_stop = false;
    t_dom = None;
  }

let timer_stop tm =
  Mutex.lock tm.t_lock;
  tm.t_stop <- true;
  Condition.signal tm.t_cond;
  let dom = tm.t_dom in
  tm.t_dom <- None;
  Mutex.unlock tm.t_lock;
  match dom with Some d -> Domain.join d | None -> ()

let[@sanctioned_blocking] sleep secs =
  let fb = self_exn "Fiber.sleep" in
  if secs > 0. then begin
    let tm = fb.sched.timer in
    let deadline = M.now_ns () + int_of_float (secs *. 1e9) in
    Effect.perform
      (Suspend
         (fun resume ->
           Mutex.lock tm.t_lock;
           if tm.t_dom = None && not tm.t_stop then
             tm.t_dom <- Some (Domain.spawn (fun () -> timer_loop tm));
           tm.t_queue <- insert_deadline (deadline, resume) tm.t_queue;
           Condition.signal tm.t_cond;
           Mutex.unlock tm.t_lock))
  end
  else yield ()

(* ------------------------------------------------------------------ *)
(* Spawning, joining, cancelling                                       *)
(* ------------------------------------------------------------------ *)

let new_fiber s ~pin ~parent =
  {
    fid = A.fetch_and_add s.next_fid 1;
    sched = s;
    pin;
    cancelled_f = A.make false;
    parked = A.make None;
    kids = A.make None;
    parent;
    birth_ns = M.now_ns ();
  }

let rec do_cancel fb =
  if not (A.exchange fb.cancelled_f true) then begin
    (* Flag first, registry snapshot second: a spawn whose child missed
       this snapshot reads the flag after registering (spawn's
       registry CS is ordered with ours by the mutex) and cancels the
       child itself. *)
    (match A.get fb.kids with
    | Some (kl, kt) ->
        Mutex.lock kl;
        let kids = Hashtbl.fold (fun _ c acc -> c :: acc) kt [] in
        Mutex.unlock kl;
        List.iter do_cancel kids
    | None -> ());
    match A.exchange fb.parked None with
    | Some resume -> resume ()
    | None -> ()
  end

let launch parent ?pin f =
  let s = parent.sched in
  (match pin with
  | Some i when i < 0 || i >= Pool.cores s.pool ->
      invalid_arg "Fiber.spawn_on: worker id out of range"
  | _ -> ());
  let child = new_fiber s ~pin ~parent:(Some parent) in
  (* Register with the parent before the cancellation check (see
     do_cancel for the ordering argument). *)
  let kl, kt =
    match A.get parent.kids with
    | Some kk -> kk
    | None ->
        let kk = (Mutex.create (), Hashtbl.create 8) in
        A.set parent.kids (Some kk);
        kk
  in
  Mutex.lock kl;
  Hashtbl.replace kt child.fid child;
  Mutex.unlock kl;
  A.incr s.spawned;
  bump_live s;
  let h_done = Promise.create () in
  start child f (fun res ->
      match res with
      | Ok v -> ignore (Promise.try_fulfil h_done v)
      | Error e -> ignore (Promise.try_break h_done e));
  if A.get parent.cancelled_f then do_cancel child;
  { h_fb = child; h_done }

let spawn f = launch (self_exn "Fiber.spawn") f
let spawn_on i f = launch (self_exn "Fiber.spawn_on") ~pin:i f

let[@sanctioned_blocking] join h = await h.h_done

let cancel h = do_cancel h.h_fb
let is_cancelled h = A.get h.h_fb.cancelled_f

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_samples s =
  let c name help cell =
    M.c_sample ~help name (float_of_int (A.get cell))
  in
  [
    c "repro_fiber_spawned_total" "Fibers spawned (including roots)" s.spawned;
    c "repro_fiber_completed_total" "Fibers finished with a value" s.completed;
    c "repro_fiber_cancelled_total" "Fibers finished by cancellation"
      s.cancelled;
    c "repro_fiber_failed_total" "Fibers finished with an exception" s.failed;
    c "repro_fiber_suspends_total" "Fiber suspensions (await/sleep parks)"
      s.suspends;
    c "repro_fiber_resumes_total" "Fiber resumes re-enqueued into the pool"
      s.resumes;
    c "repro_fiber_yields_total" "Voluntary yields" s.yields;
    M.g_sample ~help:"Fibers currently live" "repro_fiber_live"
      (float_of_int (A.get s.live));
    M.g_sample ~help:"High-water mark of concurrently live fibers"
      "repro_fiber_live_max"
      (float_of_int (A.get s.high_water));
  ]

let stats_of s =
  {
    s_spawned = A.get s.spawned;
    s_completed = A.get s.completed;
    s_cancelled = A.get s.cancelled;
    s_failed = A.get s.failed;
    s_suspends = A.get s.suspends;
    s_resumes = A.get s.resumes;
    s_yields = A.get s.yields;
    s_live = A.get s.live;
    s_high_water = A.get s.high_water;
  }

let stats () = stats_of (self_exn "Fiber.stats").sched

(* ------------------------------------------------------------------ *)
(* Running a scheduler                                                 *)
(* ------------------------------------------------------------------ *)

let make_sched pool =
  {
    pool;
    next_fid = A.make 0;
    spawned = A.make 0;
    completed = A.make 0;
    cancelled = A.make 0;
    failed = A.make 0;
    suspends = A.make 0;
    resumes = A.make 0;
    yields = A.make 0;
    live = A.make 0;
    high_water = A.make 0;
    lifetime =
      M.histogram ~help:"Fiber lifetime, birth to completion (ns)"
        "repro_fiber_lifetime_ns";
    timer = timer_create ();
    mtoken = None;
  }

let retire s =
  timer_stop s.timer;
  match s.mtoken with
  | Some tok ->
      s.mtoken <- None;
      M.remove_collector tok
  | None -> ()

(* Worker 0 drives the pool until every fiber is done.  Helping runs
   queued segments directly; the backoff only engages when every
   runnable segment is on some other domain. *)
let drive s ctx =
  let idle = ref 0 in
  while A.get s.live > 0 do
    if Pool.help ctx then idle := 0
    else begin
      incr idle;
      Domain.cpu_relax ();
      if !idle > 512 then Unix.sleepf 1e-4
    end
  done

let run_in pool f =
  let s = make_sched pool in
  s.mtoken <- Some (M.add_collector ~name:"fiber" (fun () -> metrics_samples s));
  Fun.protect
    ~finally:(fun () -> retire s)
    (fun () ->
      Pool.run pool (fun () ->
          let result = ref None in
          let root = new_fiber s ~pin:None ~parent:None in
          A.incr s.spawned;
          bump_live s;
          start root f (fun res -> result := Some res);
          let ctx =
            match Pool.current () with Some c -> c | None -> assert false
          in
          drive s ctx;
          match !result with
          | Some (Ok v) -> v
          | Some (Error e) -> raise e
          | None -> failwith "Fiber.run_in: quiescent with root unfinished"))

let run ?cores ?tracer f =
  let pool = Pool.create ?cores ?tracer () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> run_in pool f)

(* Install the Future.force integration: inside a fiber, a forcer with
   nothing to help with yields the *fiber* (its segment goes to the
   back of the worker's FIFO lane) instead of spinning or sleeping the
   domain — so a force on a future evaluated elsewhere never starves
   the other fibers multiplexed on this worker. *)
let () =
  Pool.fiber_yield :=
    fun () ->
      match Domain.DLS.get current_key with
      | Some _ ->
          Effect.perform Yield;
          true
      | None -> false
