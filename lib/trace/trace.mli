(** EdenTV-style execution tracing (the paper's Figs. 2 and 4).

    Each capability is, at any virtual instant, in one of the states of
    the paper's colour legend; a recorder collects state transitions,
    counters and point markers, and the {!Render}/{!Render_svg} modules
    turn them into timelines. *)

type state =
  | Running  (** executing computation (green) *)
  | Runnable  (** waiting for system work or synchronisation (yellow) *)
  | Blocked  (** all threads blocked (red) *)
  | Idle  (** nothing to do (blue) *)
  | Gc  (** inside the collector *)

val state_char : state -> char
val state_name : state -> string
val all_states : state list

type entry =
  | Transition of { time : int; cap : int; state : state }
  | Marker of { time : int; cap : int; label : string }

type t

(** @raise Invalid_argument if [caps <= 0]. *)
val create : caps:int -> t

(** Stop recording entries (state is still tracked; rendering will be
    empty).  Used for long parameter sweeps. *)
val disable : t -> unit

val caps : t -> int

(** Record a state transition (deduplicated if the state is
    unchanged). *)
val set_state : t -> time:int -> cap:int -> state -> unit

val marker : t -> time:int -> cap:int -> string -> unit
val state_of : t -> int -> state
val incr : ?by:int -> t -> string -> unit
val counter : t -> string -> int

(** Extend the recorded end time. *)
val finish : t -> time:int -> unit

val end_time : t -> int
val entries : t -> entry list

(** Per-capability segments [(t0, t1, state)], in time order, covering
    [0 .. end_time]. *)
val segments : t -> (int * int * state) list array

(** Fraction of total capability-time spent [Running]. *)
val utilisation : t -> float

(** Fraction of total capability-time spent in [state]. *)
val state_fraction : t -> state -> float
