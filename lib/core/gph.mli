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
    the node's own allocation. *)
val thunk : ?size:int -> cost:Cost.t -> (unit -> 'a) -> 'a t

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

(** Reduce to normal form (= WHNF in this model: payloads are strict
    OCaml values). *)
val rnf : 'a t strategy

(** Spark every element for parallel evaluation ([parList]). *)
val par_list : 'a t strategy -> 'a t list -> unit

(** [using x s] applies [s] to [x] and returns [x]. *)
val using : 'a -> 'a strategy -> 'a

(** Chunked data parallelism ([parListChunk]/[splitIntoN]): split into
    [chunks] pieces, spark a thunk per piece, combine forced results. *)
val par_chunks :
  chunks:int ->
  cost:('a list -> Cost.t) ->
  f:('a list -> 'b) ->
  combine:('b list -> 'c) ->
  'a list ->
  'c

(** One spark per element ([parMap rnf f]). *)
val par_map : cost:('a -> Cost.t) -> ('a -> 'b) -> 'a list -> 'b list

(** Divide and conquer with sparked sub-trees (the [parDivConq]
    pattern): divide down to [is_trivial], sparking all but the last
    sub-problem while [depth] allows. *)
val div_conquer :
  depth:int ->
  divide:('p -> 'p list) ->
  is_trivial:('p -> bool) ->
  solve_cost:('p -> Cost.t) ->
  solve:('p -> 's) ->
  combine:('p -> 's list -> 's) ->
  'p ->
  's
