(** SplitMix64 deterministic pseudo-random number generator (Steele,
    Lea & Flood, OOPSLA'14).  Every source of randomness in the
    simulator draws from an explicitly-seeded [t], so experiments are
    exactly reproducible from their seeds.  No draw allocates, except
    that a {!float} returned to another module is boxed ([-opaque]
    builds never inline it): {!bernoulli} and {!fill_float} keep their
    floats unboxed. *)

type t

val create : int -> t

(** [skip t k] moves [t] on as [k] draws would, in O(1): whatever is
    drawn next is what the draw after those [k] would have given.
    @raise Invalid_argument if [k < 0]. *)
val skip : t -> int -> unit

(** Derive an independent generator (splittable stream). *)
val split : t -> t

(** Non-negative 62-bit integer. *)
val next_int : t -> int

(** [int t bound]: uniform in [\[0, bound)], without modulo bias.
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [\[0, 1)]. *)
val float : t -> float

(** [bernoulli t p] is [float t < p], with no float boxed. *)
val bernoulli : t -> float -> bool

(** [fill_float ~stride t a lo hi] sets [a.(lo)], ..., [a.(hi)] in
    index order to draws [0], [stride], [2 * stride], ... of [t] (every
    draw when [stride] is 1, the default), leaving [t] [stride] draws
    on per element, with no allocation.
    @raise Invalid_argument if [stride < 1]. *)
val fill_float : ?stride:int -> t -> float array -> int -> int -> unit

(** [int_range t lo hi]: uniform in [\[lo, hi\]] inclusive. *)
val int_range : t -> int -> int -> int

(** Fisher–Yates shuffle. *)
val shuffle_in_place : t -> 'a array -> unit
