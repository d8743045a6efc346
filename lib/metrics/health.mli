(** Health detectors: a rule pass over a (possibly farm-merged)
    {!Metrics.snapshot} that turns raw counters into shutdown verdicts
    — steal-failure storms, spark fizzle ratio, ring backpressure
    stalls, GC pressure over budget, fibers still live after the
    workload drained (a parked fiber whose wakeup never came). *)

type config = {
  steal_min_attempts : float;
      (** ignore runs with fewer steal attempts than this *)
  steal_fail_ratio : float;  (** failed/attempted above this is a storm… *)
  steal_attempts_per_park : float;
      (** …but only when attempts outrun parks by this factor
          (parking workers are famished, not storming) *)
  fizzle_min_created : float;
  fizzle_ratio : float;  (** fizzled/created above this *)
  backpressure_min_waits : float;
  backpressure_per_msg : float;  (** waits per sent message above this *)
  gc_min_elapsed_s : float;  (** rates are meaningless on shorter runs *)
  gc_minor_per_sec : float;
  gc_major_per_sec : float;
}

type verdict = { rule : string; triggered : bool; detail : string }

val evaluate : ?config:config -> Metrics.snapshot -> verdict list
(** One verdict per rule, in a fixed order. *)

val pp : Format.formatter -> verdict list -> unit
(** One [health: OK|FAIL rule (detail)] line per verdict. *)

val exit_code : verdict list -> int
(** 0 when nothing triggered, 3 otherwise (for [--strict-health]). *)
