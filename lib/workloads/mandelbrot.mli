(** Mandelbrot rendering: the standard irregular data-parallel farm —
    row costs vary wildly, so static splitting misbalances and dynamic
    balancing wins.  Points are computed for real; charged cost is
    proportional to the iterations actually performed. *)

type view = { x0 : float; y0 : float; x1 : float; y1 : float; max_iter : int }

val default_view : view

(** Escape iterations for the point [(cr, ci)]. *)
val escape : max_iter:int -> float -> float -> int

(** Compute one image row; returns (per-pixel iterations, total).
    Pixel [k] of an [n]-pixel axis samples [lo + (hi - lo) k / (n - 1)];
    a 1-pixel axis samples the view's low edge ([x0] or [y0]). *)
val compute_row : view:view -> width:int -> height:int -> int -> int array * int

(** Sequential reference checksum (sum of all iteration counts), the
    caller's check of {!gph}'s and {!eden_mw}'s unchecked result. *)
val reference : ?view:view -> width:int -> height:int -> unit -> int

(** GpH: one spark per row. *)
val gph : ?view:view -> width:int -> height:int -> unit -> int

(** Eden: master-worker over rows (dynamic balancing). *)
val eden_mw :
  ?view:view -> ?prefetch:int -> width:int -> height:int -> unit -> int
