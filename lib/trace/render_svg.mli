(** SVG renderer for traces: per-capability activity bars over time in
    the EdenTV colour scheme (green running, yellow runnable, red
    blocked, blue-grey idle, purple GC). *)

(** Render a self-contained SVG document.  [width] is the time-axis
    width in pixels; each capability gets a 22 px bar. *)
val render : ?width:int -> ?title:string -> Trace.t -> string

(** Render straight to a file. *)
val to_file : ?width:int -> ?title:string -> Trace.t -> string -> unit
