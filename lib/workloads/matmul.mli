(** Dense matrix multiplication: the paper's second benchmark (Figs. 3
    and 4).  A [Real] run returns its product's checksum unchecked, for
    the caller to compare with {!Matrix.mul_ref}'s on the same inputs,
    [Matrix.random ~seed n] and [~seed:(seed + 1)]; [Synthetic], 0.0. *)

(** GpH blockwise multiply: result blocks become sparks ("the block
    size, i.e. the spark granularity, is tunable by a parameter"),
    with row-segment-grain sharing inside each block. *)
val gph :
  ?block:int ->
  ?payload:Matrix.payload ->
  ?seed:int ->
  n:int ->
  unit ->
  float

(** Eden: Cannon's algorithm on a [q x q] torus of processes (the
    paper runs 3x3 on 9 and 4x4 on 17 virtual PEs).
    @raise Invalid_argument unless [q] divides [n]. *)
val eden_cannon :
  ?payload:Matrix.payload -> ?seed:int -> n:int -> q:int -> unit -> float
