(** SplitMix64 deterministic pseudo-random number generator (Steele,
    Lea & Flood, OOPSLA'14).  Every source of randomness in the
    simulator draws from an explicitly-seeded [t], so experiments are
    exactly reproducible from their seeds. *)

type t

val create : int -> t
val copy : t -> t

(** Derive an independent generator (splittable stream). *)
val split : t -> t

(** Non-negative 62-bit integer. *)
val next_int : t -> int

(** [int t bound]: uniform in [\[0, bound)], without modulo bias.
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [\[0, 1)]. *)
val float : t -> float

val bool : t -> bool

(** [int_range t lo hi]: uniform in [\[lo, hi\]] inclusive. *)
val int_range : t -> int -> int -> int

(** Exponentially distributed with the given positive mean. *)
val exponential : t -> mean:float -> float

(** Fisher–Yates shuffle. *)
val shuffle_in_place : t -> 'a array -> unit
