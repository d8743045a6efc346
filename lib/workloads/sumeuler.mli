(** sumEuler: the paper's "simple map-reduce operation" (Figs. 1–3).
    All variants compute the real value (checked against
    {!Euler.sum_euler_ref}) and end with the sequential verification
    pass visible at the end of the paper's traces. *)

val resident : int -> int

(** GpH version: sublists sparked under [parList rnf]; [chunks]
    defaults to ~50 numbers per spark; [split] selects the splitting
    variant (round-robin balances since phi's cost grows with k). *)
val gph :
  ?chunks:int ->
  ?split:[ `Contiguous | `Round_robin ] ->
  n:int ->
  unit ->
  int

(** Eden version: one process per PE over statically-dealt pieces
    ([`Contiguous] reproduces the "sub-optimal static load balance"
    the paper notes for its trace e). *)
val eden : ?split:[ `Contiguous | `Round_robin ] -> n:int -> unit -> int

(** GUM version (paper Sec. III-B): the GpH-shaped program on
    distributed heaps with FISH/SCHEDULE passive work distribution.
    Must run inside {!Repro_core.Gum}-compatible (distributed)
    configurations. *)
val gum : ?chunks:int -> n:int -> unit -> int

(** Sequential baseline with identical cost accounting. *)
val seq : n:int -> unit -> int
