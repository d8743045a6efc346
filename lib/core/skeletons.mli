(** Algorithmic and topology skeletons for Eden (paper Sec. II-A):
    higher-order parallel building blocks over the process/channel
    primitives — and, as the paper stresses, ordinary functions that
    remain amenable to customisation. *)

(** The Eden farm: [np] processes (default one per PE), inputs dealt
    round-robin ([unshuffle]), outputs re-interleaved ([shuffle]).
    Semantically [List.map f]. *)
val par_map_farm :
  ?np:int ->
  tr_in:'a Eden.trans ->
  tr_out:'b Eden.trans ->
  ('a -> 'b) ->
  'a list ->
  'b list

(** A master process farms a dynamically growing task pool out to [np]
    workers; [f task] yields new tasks plus a result, supporting
    backtracking / branch-and-bound (Sec. II-A).  {!Repro_mp.Star}
    places the tasks, as it does for the process farm: each worker
    holds at most [prefetch] (default 2), a result is answered with
    that worker's next task, and a worker left without one gets the
    first task a later result adds.  Results in completion order. *)
val master_worker :
  ?np:int ->
  ?prefetch:int ->
  tr_task:'a Eden.trans ->
  tr_res:'b Eden.trans ->
  ('a -> 'a list * 'b) ->
  'a list ->
  'b list

(** {1 Topology skeletons} *)

(** [n] processes in a unidirectional ring.  Process [k] receives
    [distribute k], reads ring traffic from its left neighbour
    ([recv () = None] once closed), writes to its right neighbour, and
    produces an output; outputs are collected in ring order. *)
val ring :
  n:int ->
  tr_ring:'r Eden.trans ->
  tr_out:'o Eden.trans ->
  distribute:(int -> 'i) ->
  worker:
    (int -> 'i -> (unit -> 'r option) -> ('r -> unit) -> (unit -> unit) -> 'o) ->
  'o list

(** A 2-D toroid: ['a]-values circulate leftwards within rows,
    ['b]-values upwards within columns — Cannon's communication
    structure.  Outputs in row-major order. *)
val torus :
  rows:int ->
  cols:int ->
  tr_a:'a Eden.trans ->
  tr_b:'b Eden.trans ->
  tr_out:'o Eden.trans ->
  worker:
    (row:int ->
    col:int ->
    recv_a:(unit -> 'a option) ->
    send_a:('a -> unit) ->
    recv_b:(unit -> 'b option) ->
    send_b:('b -> unit) ->
    'o) ->
  'o list
