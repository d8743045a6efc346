(** Imperative binary-heap priority queue with {e stable} tie-breaking:
    entries with equal keys pop in insertion order, which makes
    discrete-event simulations deterministic. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [add q key v] inserts [v] with priority [key] (smaller pops
    first). *)
val add : 'a t -> int -> 'a -> unit

(** Smallest key currently in the queue. *)
val min_key : 'a t -> int option

exception Empty

(** Remove and return the minimum entry.
    @raise Empty when the queue is empty. *)
val pop : 'a t -> int * 'a

val pop_opt : 'a t -> (int * 'a) option

(** Remove everything, in priority order. *)
val drain : 'a t -> (int * 'a) list

val of_list : (int * 'a) list -> 'a t
