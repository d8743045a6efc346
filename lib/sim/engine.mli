(** Discrete-event simulation engine: a single virtual clock (integer
    nanoseconds) and a binary heap of pending events.  Events scheduled
    for the same instant fire in scheduling order, so every simulation
    is deterministic. *)

type t

exception Horizon_exceeded of int

(** [create ?horizon ()]: a fresh engine at time 0.  [horizon] is a
    runaway-simulation safety stop (default: one virtual hour). *)
val create : ?horizon:int -> unit -> t

(** Current virtual time (ns). *)
val now : t -> int

(** Total events dispatched so far. *)
val dispatched : t -> int

(** [at t time f]: schedule [f] at the absolute virtual [time].
    @raise Invalid_argument if [time] is in the past. *)
val at : t -> int -> (unit -> unit) -> unit

(** [after t delay f]: schedule [f] [delay] ns from now.
    @raise Invalid_argument on negative delays. *)
val after : t -> int -> (unit -> unit) -> unit

(** [again t delay]: re-arm the event being dispatched, [delay] ns
    from now, without scheduling a new one: it keeps its closure and
    takes its sequence number at the call, so it fires exactly where
    [after t delay f] called at the same point would have fired.  It
    is dispatched, and counted by {!dispatched}, once more.  If its
    handler then raises, the event is dropped all the same.
    @raise Invalid_argument outside a dispatch, on a second call in
    one dispatch, or on a negative delay. *)
val again : t -> int -> unit

(** Stop the current {!run} after the event in progress. *)
val stop : t -> unit

(** Run until the queue drains (or [until] / the horizon is reached);
    returns the final virtual time.  A run stopped by [until] leaves
    the clock at [until] (never before the current time) and can be
    resumed by calling [run] again; events of one instant still fire in
    scheduling order.
    @raise Horizon_exceeded if an event lies beyond the horizon.
    @raise Invalid_argument when called from one of [t]'s handlers. *)
val run : ?until:int -> t -> int
