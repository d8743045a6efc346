(** sumEuler: the paper's "simple map-reduce operation" (Figs. 1–3).
    Both programs compute the real value (checked against
    {!Euler.sum_euler_ref}) and end with the sequential verification
    pass visible at the end of the paper's traces. *)

(** GpH version: the input dealt round-robin into sublists of ~50
    numbers (at least [4 * ncaps]), each sparked under [parList rwhnf]
    (round-robin balances since phi's cost grows with k). *)
val gph : n:int -> unit -> int

(** Eden version: one process per PE over pieces dealt round-robin
    ([unshuffle]). *)
val eden : n:int -> unit -> int
