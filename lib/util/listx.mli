(** List helpers shared by skeletons and workloads. *)

(** [unshuffle n xs]: [n] pieces by round-robin dealing (Eden's
    [unshuffle]); inverse of {!shuffle}. *)
val unshuffle : int -> 'a list -> 'a list list

(** Interleave round-robin-dealt pieces back into one list. *)
val shuffle : 'a list list -> 'a list
