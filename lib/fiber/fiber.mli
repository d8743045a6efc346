(** Effects-based fiber runtime over the {!Repro_exec.Pool} domain
    pool.

    Fibers are suspendable tasks multiplexed onto the pool's workers:
    {!await} parks the {e fiber} (its continuation joins the promise's
    waiter list), never the domain — the worker simply runs the next
    task, and the woken continuation re-enters the pool through the
    per-worker Chase–Lev deques so stealing keeps working.  100k+
    concurrent fibers on 2 domains is the designed operating point
    ([repro_cli exec --fibers], [bench --fiber-overhead]).

    Structured concurrency: fibers are spawned from inside a fiber
    ({!run} provides the root), form a tree, and {!cancel} propagates
    down it; {!run} returns only once every fiber in the tree is done.

    All lifecycle events flow into {!Repro_metrics} under
    [repro_fiber_*] while a scheduler is live. *)

exception Cancelled
(** Raised inside a fiber at its next suspension point (or entry) after
    {!cancel}; also the result of {!join} on a cancelled fiber. *)

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
        (** [perform (Suspend register)] parks the current fiber and
            hands [register] an idempotent resume thunk; fire it (from
            any domain) to re-enqueue the fiber.  This is the extension
            point {!await} and {!sleep} are built on. *)
  | Yield : unit Effect.t

type 'a handle
(** A spawned fiber plus its completion promise. *)

type stats = {
  s_spawned : int;
  s_completed : int;
  s_cancelled : int;
  s_failed : int;
  s_suspends : int;
  s_resumes : int;
  s_yields : int;
  s_live : int;
  s_high_water : int;  (** max simultaneously live fibers *)
}

(** {2 Running} *)

val run : ?cores:int -> ?tracer:Repro_exec.Tracer.t -> (unit -> 'a) -> 'a
(** [run f] creates a pool, runs [f] as the root fiber and drives the
    pool until {e every} fiber is done; returns [f]'s value or re-raises
    its exception.  Not reentrant. *)

val run_in : Repro_exec.Pool.t -> (unit -> 'a) -> 'a
(** Same on an existing pool (the caller's domain becomes worker 0 for
    the duration, as with [Pool.run]).  The pool survives for reuse. *)

(** {2 Inside a fiber} *)

val spawn : (unit -> 'a) -> 'a handle
(** Child fiber of the current fiber; its first segment is pushed onto
    the current worker's deque (stealable).
    @raise Invalid_argument outside a fiber. *)

val spawn_on : int -> (unit -> 'a) -> 'a handle
(** Pin the child to a worker id: every segment (start, resumes,
    yields) goes through that worker's FIFO inbox lane.
    @raise Invalid_argument if the id is out of range. *)

val await : 'a Promise.t -> 'a
(** Park this fiber until the promise resolves; raises the promise's
    exception if it was broken.  The domain keeps running other
    tasks. *)

val join : 'a handle -> 'a
(** {!await} the fiber's completion promise (raises {!Cancelled} if it
    was cancelled, or its escaping exception). *)

val yield : unit -> unit
(** Reschedule to the back of this worker's FIFO lane — cooperative
    fairness between fibers sharing a domain. *)

val sleep : float -> unit
(** Park this fiber for at least the given seconds (a shared deadline
    timer domain fires the resume; the pool's domains stay free). *)

val cancel : _ handle -> unit
(** Request cancellation of the fiber and, recursively, its children.
    Parked fibers are woken into {!Cancelled} immediately; running ones
    observe it at their next suspension point.  Idempotent. *)

val is_cancelled : _ handle -> bool

val stats : unit -> stats
(** Live scheduler counters, from inside a fiber. *)
