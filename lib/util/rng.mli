(** SplitMix64 deterministic pseudo-random number generator (Steele,
    Lea & Flood, OOPSLA'14).  Every source of randomness in the
    simulator draws from an explicitly-seeded [t], so experiments are
    exactly reproducible from their seeds. *)

type t

val create : int -> t

(** Derive an independent generator (splittable stream). *)
val split : t -> t

(** Non-negative 62-bit integer. *)
val next_int : t -> int

(** [int t bound]: uniform in [\[0, bound)], without modulo bias.
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [\[0, 1)]. *)
val float : t -> float

(** [fill_float t a lo hi] sets [a.(lo)], ..., [a.(hi)] in index order
    to successive {!float} draws, with no allocation. *)
val fill_float : t -> float array -> int -> int -> unit

(** [int_range t lo hi]: uniform in [\[lo, hi\]] inclusive. *)
val int_range : t -> int -> int -> int

(** Fisher–Yates shuffle. *)
val shuffle_in_place : t -> 'a array -> unit
