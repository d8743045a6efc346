(** Models of the paper's two measurement platforms (Sec. V): an Intel
    8-core (2x Xeon quad @ 1.86 GHz) and an AMD 16-core (4x Opteron
    quad @ 2.3 GHz).  A machine converts abstract work (cycles) into
    virtual nanoseconds and supplies the memory-system parameters used
    by the cache-pressure penalty model — the mechanism behind the
    paper's Fig.-4 observation that Eden with more virtual PEs than
    cores wins. *)

type t = {
  name : string;
  cores : int;
  clock_hz : float;
  cache_bytes : int;  (** effective per-core cache *)
  mem_penalty_max : float;
      (** multiplier on mutator work when the working set far exceeds
          cache *)
  os_quantum_ns : int;
      (** OS scheduling quantum when multiplexing virtual PEs *)
  os_switch_ns : int;
}

(** @raise Invalid_argument on non-positive cores or clock. *)
val make :
  name:string ->
  cores:int ->
  clock_ghz:float ->
  ?cache_mb:int ->
  ?mem_penalty_max:float ->
  ?os_quantum_ns:int ->
  ?os_switch_ns:int ->
  unit ->
  t

(** 2x Intel Xeon quad-core @ 1.86 GHz (MS Research Cambridge). *)
val intel8 : t

(** 4x AMD Opteron quad-core @ 2.3 GHz (LMU Munich). *)
val amd16 : t

(** Same machine with a different core count (for speedup sweeps). *)
val with_cores : t -> int -> t

val ns_of_cycles : t -> int -> int
val cycles_of_ns : t -> int -> int

(** Saturating cache-pressure multiplier: 1.0 below the per-core cache
    size, smoothly approaching [mem_penalty_max] above it. *)
val mem_penalty : t -> working_set:int -> float
