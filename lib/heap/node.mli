(** Reified lazy heap nodes (thunks) with black-hole synchronisation.

    OCaml is strict, but the paper's central black-holing study
    (Sec. IV-A.3) concerns {e lazy} heap semantics: a thunk entered by
    one thread may be concurrently entered by another — duplicating
    work — unless it has been marked as a "black hole".  This module
    reifies the GHC heap-node life cycle:

    {v Unevaluated --enter--> (Blackhole) --update--> Value v}

    Under {b eager} black-holing the node is marked at entry, so a
    second thread blocks.  Under {b lazy} black-holing the node stays
    unevaluated until the owning thread is descheduled (the runtime
    then retroactively marks its update stack); other threads entering
    in that window silently duplicate the evaluation — exactly GHC's
    behaviour.  Updates are idempotent (referential transparency): a
    duplicate writing second is counted as waste, never an error. *)

(** Per-heap statistics, aggregated across all nodes created from it. *)
type registry = {
  mutable created : int;
  mutable entered : int;
  mutable dup_entries : int;
      (** entries into a node that was already being evaluated *)
  mutable dup_updates : int;  (** updates that found a value present *)
  mutable blocked_forces : int;  (** forces that hit a black hole *)
  mutable updates : int;
  mutable blackholed : int;
  mutable next_id : int;
}

val registry : unit -> registry

type 'a t

(** Existential wrapper for heterogeneous update stacks (retroactive
    lazy black-holing at context-switch time). *)
type boxed = Boxed : 'a t -> boxed

(** [thunk ?size reg f]: a suspended computation whose value occupies
    [size] heap bytes. *)
val thunk : ?size:int -> registry -> (unit -> 'a) -> 'a t

(** An already-evaluated node. *)
val value : ?size:int -> registry -> 'a -> 'a t

val is_value : 'a t -> bool
val is_blackhole : 'a t -> bool
val peek : 'a t -> 'a option

exception Not_evaluated

(** @raise Not_evaluated unless the node holds a value. *)
val get_value : 'a t -> 'a

(** What a force attempt should do next; interpreted by the runtime
    layer ({!Repro_core.Gph.force}). *)
type 'a entry_decision =
  | Ready of 'a  (** already a value *)
  | Evaluate of (unit -> 'a)  (** run the closure, then {!update} *)
  | Wait  (** black hole: block until updated *)

(** [enter ~eager n]: a thread is about to force [n].  With [eager],
    the node is atomically marked [Blackhole]; without, a concurrent
    second entry is permitted (and counted as a duplicate). *)
val enter : eager:bool -> 'a t -> 'a entry_decision

(** Retroactive marking (lazy black-holing at deschedule): mark the
    node if it is still unevaluated; returns whether it marked. *)
val blackhole_if_unevaluated : 'a t -> bool

val blackhole_boxed : boxed -> unit

(** Register a wake-up callback, fired exactly once when the node is
    updated; fires immediately if the node already holds a value (no
    lost wake-ups). *)
val add_waiter : 'a t -> (unit -> unit) -> unit

(** [update n v]: evaluation finished.  Returns [true] if this call
    installed the value, [false] for a duplicate.  Wakes all waiters
    exactly once either way. *)
val update : 'a t -> 'a -> bool

val waiters_count : 'a t -> int
