(** GpH-style strategies on real domains: the hardware analogues of
    [Repro_core.Gph]'s simulated combinators.  Outside a {!Pool} every
    combinator degrades to plain sequential evaluation. *)

(** [par f g]: spark [f], run [g] here, join. *)
val par : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

(** Spark every thunk, collect results in list order. *)
val par_list : (unit -> 'a) list -> 'a list

val par_map : ('a -> 'b) -> 'a list -> 'b list

(** [par_range ~chunks lo hi f ~combine ~init]: evaluate
    [f start stop] on [max 1 (min chunks (hi - lo + 1))] non-empty,
    contiguous sub-ranges that cover [lo..hi] once, one spark each,
    and fold the results left to right.  Nothing is allocated per
    index.  [init] when [hi < lo]. *)
val par_range :
  chunks:int ->
  int ->
  int ->
  (int -> int -> 'a) ->
  combine:('b -> 'a -> 'b) ->
  init:'b ->
  'b

(** 4 sparks per available core, capped by the piece count. *)
val default_chunks : int -> int
