(** Abstract work/allocation costs charged by simulated computations.

    A [t] describes how much a piece of (simulated) Haskell computation
    costs: how many processor cycles of mutator work it performs and how
    many bytes it allocates in the heap.  Costs are the currency in which
    workloads talk to the runtime-system simulator: real OCaml values are
    computed, but virtual time advances according to the attached cost.

    Cycles are converted to virtual nanoseconds by the machine model
    (see {!Repro_machine.Machine}). *)

type t = {
  cycles : int;  (** mutator work, in processor cycles *)
  alloc : int;  (** heap allocation, in bytes *)
}

let zero = { cycles = 0; alloc = 0 }

let make ?(alloc = 0) cycles =
  if cycles < 0 then invalid_arg "Cost.make: negative cycles";
  if alloc < 0 then invalid_arg "Cost.make: negative alloc";
  { cycles; alloc }

let cycles c = make c
let alloc a = make 0 ~alloc:a
let add a b = { cycles = a.cycles + b.cycles; alloc = a.alloc + b.alloc }
let ( + ) = add

let scale k c =
  if k < 0 then invalid_arg "Cost.scale: negative factor";
  { cycles = k * c.cycles; alloc = k * c.alloc }

let is_zero c = c.cycles = 0 && c.alloc = 0
