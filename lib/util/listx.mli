(** List helpers shared by skeletons and workloads. *)

(** Contiguous pieces of at most [size] elements.
    @raise Invalid_argument if [size <= 0]. *)
val chunk : size:int -> 'a list -> 'a list list

(** [split_into_n n xs]: exactly [n] contiguous near-equal pieces
    (Eden's [splitIntoN]); trailing pieces may be empty. *)
val split_into_n : int -> 'a list -> 'a list list

(** [unshuffle n xs]: [n] pieces by round-robin dealing (Eden's
    [unshuffle]); inverse of {!shuffle}. *)
val unshuffle : int -> 'a list -> 'a list list

(** Interleave round-robin-dealt pieces back into one list. *)
val shuffle : 'a list list -> 'a list

val transpose : 'a list list -> 'a list list

(** Group an association list by key, preserving first-seen key order
    and per-key value order. *)
val group_by_key : ('k * 'v) list -> ('k * 'v list) list
