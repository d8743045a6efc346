(** Glasgow parallel Haskell (GpH): [par], [seq] and evaluation
    strategies on the shared-heap runtime (paper Sec. II-B).

    Lazy values are reified as cost-annotated thunks; {!force}
    implements GHC's thunk-entry protocol including the lazy/eager
    black-holing distinction of Sec. IV-A.3.  All functions must run
    inside a simulated thread ({!Repro_parrts.Rts.run}). *)

module Cost = Repro_util.Cost

type 'a t = 'a Repro_heap.Node.t
(** A lazy value in the simulated shared heap. *)

(** [thunk ~cost f] suspends [f]; forcing charges [cost] then runs [f]
    (which may force further thunks, charging more).  Creation charges
    the node's own allocation.

    [~forces_only:true] (default [false]) promises that [f]'s only
    simulated effects are forces of thunks.  A duplicate evaluation
    whose charge ends after another evaluator updated the node then
    returns the installed value without running [f] — exact, because
    every thunk [f] forces already holds a value.  A body that charges,
    sparks or makes thunks inside itself must not opt in. *)
val thunk :
  ?size:int -> ?forces_only:bool -> cost:Cost.t -> (unit -> 'a) -> 'a t

(** An already-evaluated value. *)
val return : ?size:int -> 'a -> 'a t

(** Force to weak head normal form: value hit, evaluation (with
    update), duplicate lazy entry, or blocking on a black hole. *)
val force : 'a t -> 'a

(** [par n] records a spark for [n] (Haskell: [n `par` e]); fizzles if
    [n] is evaluated before activation. *)
val par : 'a t -> unit

(** Force now (Haskell's [seq] for sequential ordering). *)
val seq : 'a t -> unit

(** {1 Evaluation strategies} (Trinder et al., JFP 1998) *)

type 'a strategy = 'a -> unit

(** No evaluation ([r0]). *)
val r0 : 'a strategy

(** Reduce to weak head normal form. *)
val rwhnf : 'a t strategy

(** Spark every element for parallel evaluation ([parList]). *)
val par_list : 'a t strategy -> 'a t list -> unit

(** [using x s] applies [s] to [x] and returns [x]. *)
val using : 'a -> 'a strategy -> 'a
