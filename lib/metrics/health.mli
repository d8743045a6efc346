(** Health detectors: a rule pass over a (possibly farm-merged)
    {!Metrics.snapshot} that turns raw counters into shutdown verdicts
    — steal-failure storms, spark fizzle ratio, ring backpressure
    stalls and GC pressure over budget. *)

type verdict = { rule : string; triggered : bool; detail : string }

val evaluate : Metrics.snapshot -> verdict list
(** One verdict per rule, in a fixed order. *)

val pp : Format.formatter -> verdict list -> unit
(** One [health: OK|FAIL rule (detail)] line per verdict. *)

val exit_code : verdict list -> int
(** 0 when nothing triggered, 3 otherwise (for [--strict-health]). *)
