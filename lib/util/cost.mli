(** Abstract work/allocation costs charged by simulated computations.

    A {!t} describes how much a piece of (simulated) Haskell
    computation costs: processor cycles of mutator work plus bytes of
    heap allocation.  Costs are the currency in which workloads talk to
    the runtime-system simulator — real OCaml values are computed, but
    virtual time advances according to the attached cost.  Cycles are
    converted to virtual nanoseconds by the machine model. *)

type t = {
  cycles : int;  (** mutator work, in processor cycles *)
  alloc : int;  (** heap allocation, in bytes *)
}

val zero : t

(** [make ?alloc cycles] builds a cost.
    @raise Invalid_argument on negative components. *)
val make : ?alloc:int -> int -> t

(** [cycles c] is [make c]. *)
val cycles : int -> t

(** [alloc b] is allocation-only cost. *)
val alloc : int -> t

val add : t -> t -> t
val ( + ) : t -> t -> t

(** [scale k c] multiplies both components by the non-negative [k]. *)
val scale : int -> t -> t

val is_zero : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
