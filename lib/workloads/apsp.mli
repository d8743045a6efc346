(** All-pairs shortest paths (the paper's Fig. 5): Floyd–Warshall
    organised by pivot rows, parallelised as a ring pipeline (Eden) or
    as sparked rows over a chain of shared pivot thunks (GpH) — the
    structure that makes black-holing decisive (Sec. IV-A.3). *)

(** Deterministic random digraph: adjacency matrix of weights,
    [infinity] for absent edges. *)
val graph : ?seed:int -> ?density:float -> int -> float array array

(** Rows [lo..hi] of [graph n] (none if [hi < lo]), built alone. *)
val graph_rows :
  ?seed:int -> ?density:float -> int -> lo:int -> hi:int -> float array array

(** Sequential reference. *)
val floyd_warshall : float array array -> float array array

(** Sum of all finite distances, row by row in index order. *)
val checksum : float array array -> float

(** [checksum_from acc d] is [acc] plus every finite entry of [d] in
    {!checksum}'s order, so folding it over the blocks of a matrix's
    rows gives the whole matrix's checksum bit for bit. *)
val checksum_from : float -> float array array -> float

(** [relax row ~k pk] is one Floyd–Warshall step on [row], in place:
    every [row.(j)] above [row.(k) +. pk.(j)] takes that value.  The
    one min-plus kernel of the simulator and both real backends.
    @raise Invalid_argument if [pk] and [row] differ in length. *)
val relax : float array -> k:int -> float array -> unit

(** GpH: every final row sparked in advance; pivot rows are shared
    thunks forced by every row thread. *)
val gph : ?seed:int -> n:int -> unit -> float

(** Eden: ring of row-block processes; pivot rows circulate and are
    applied as they arrive ("row updates ... can be pipelined"). *)
val eden_ring : ?seed:int -> ?nprocs:int -> n:int -> unit -> float
