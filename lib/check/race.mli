(** Vector-clock happens-before analysis of recorded traces.

    Flags pairs of plain writes to the same cell that are unordered by
    happens-before (program order + release/acquire through cells +
    the setup→thread spawn edge).  In a sound lock-free protocol,
    conflicting updates go through CAS / fetch-and-add; an unordered
    plain-write pair means a blind store can clobber a concurrent
    update — the classic lazy-black-holing bug. *)

type race = {
  loc : int;
  loc_name : string;
  first : Event.t;  (** the earlier conflicting write *)
  second : Event.t;  (** the unordered later write *)
}

type report = {
  races : race list;
  locations : int;  (** distinct cells seen in the trace *)
  events_analysed : int;
}

val analyse : Event.t list -> report
(** Replay a trace (oldest first, as produced by {!Sched.check}'s
    [on_trace] or a violation's [trace]) through vector clocks.  Events
    of the final check (thread -2) are ignored; setup events (thread
    -1) seed every thread's initial clock. *)
