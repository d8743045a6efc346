(** All-pairs shortest paths (the paper's Fig. 5): Floyd–Warshall
    organised by pivot rows, parallelised as a ring pipeline (Eden) or
    as sparked rows over a chain of shared pivot thunks (GpH) — the
    structure that makes black-holing decisive (Sec. IV-A.3). *)

(** Deterministic random digraph: adjacency matrix of weights,
    [infinity] for absent edges. *)
val graph : ?seed:int -> ?density:float -> int -> float array array

(** Sequential reference. *)
val floyd_warshall : float array array -> float array array

(** Sum of all finite distances. *)
val checksum : float array array -> float

val resident : int -> int

(** GpH: every final row sparked in advance; pivot rows are shared
    thunks forced by every row thread. *)
val gph : ?seed:int -> n:int -> unit -> float

(** Eden: ring of row-block processes; pivot rows circulate and are
    applied as they arrive ("row updates ... can be pipelined"). *)
val eden_ring : ?seed:int -> ?nprocs:int -> n:int -> unit -> float

(** Sequential baseline with identical cost accounting. *)
val seq : ?seed:int -> n:int -> unit -> float
