(** DPOR model-checking scheduler (see [sched.ml] for the algorithm).

    Typical use:

    {[
      let scenario () =
        let x = Sched.Atomic.make 0 in
        Sched.set_name x "x";
        ( [ ("incr1", fun () -> Sched.Atomic.incr x);
            ("incr2", fun () -> Sched.Atomic.incr x) ],
          fun () -> assert (Sched.Atomic.get x = 2) )
      in
      match Sched.check ~name:"counter" scenario with
      | Pass s -> Printf.printf "%d interleavings\n" s.interleavings
      | Fail v -> print_string (Event.to_string_trace v.trace)
    ]} *)

exception Abandoned
(** Raised into suspended threads when a run is cut short (after a
    violation); scenario code should let it propagate. *)

(** Tracing implementation of the atomics shim.  Inside a simulated
    thread every operation is a scheduling point; during scenario setup
    and the final check operations run directly but are still recorded
    (as threads -1 / -2) for the race detector; outside any check the
    cells behave like plain atomics. *)
module Atomic : sig
  include Repro_shim.Tatomic.S
end

val set_name : 'a Atomic.t -> string -> unit
(** Name the cell in traces (default ["a<id>"]). *)

val set_printer : 'a Atomic.t -> ('a -> string) -> unit
(** Render the cell's values in traces. *)

val wait_until : (unit -> bool) -> unit
(** Block the current simulated thread until [pred ()] holds.  The
    predicate is polled by the scheduler to decide enabledness; it must
    be side-effect-free on traced cells (its reads are not recorded).
    If every live thread is blocked on a false predicate the run is a
    deadlock — this is how lost wakeups are detected. *)

type stats = {
  name : string;
  interleavings : int;  (** complete executions explored *)
  events : int;  (** total operations executed across all of them *)
  max_depth : int;  (** longest execution, in scheduler steps *)
}

type violation = {
  vname : string;
  reason : string;
  trace : Event.t list;  (** the offending interleaving, oldest first *)
  after_interleavings : int;
}

type result = Pass of stats | Fail of violation

val check :
  ?max_steps:int ->
  ?max_interleavings:int ->
  ?on_trace:(Event.t list -> unit) ->
  name:string ->
  (unit -> (string * (unit -> unit)) list * (unit -> unit)) ->
  result
(** [check ~name scenario] exhaustively explores the interleavings of
    [scenario]'s threads (modulo commuting independent operations).

    [scenario ()] builds fresh shared state and returns the list of
    named thread bodies plus a final check run after all threads
    finish; it is re-invoked once per explored interleaving and must be
    deterministic apart from scheduling.

    [max_steps] (default 4000) bounds a single run — exceeding it is
    reported as a livelock.  [max_interleavings] (default 500k) bounds
    the exploration; exceeding it raises [Failure] (shrink the
    scenario).  [on_trace] observes the event trace of every completed
    (non-violating) run, e.g. to feed {!Race.analyse}. *)
