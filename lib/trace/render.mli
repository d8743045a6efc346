(** Text renderers for traces: ASCII timelines (the textual analogue of
    the paper's Figs. 2 and 4) and CSV export. *)

(** One string per capability; each column is the dominant state of
    that time bucket, drawn with {!Trace.state_char}. *)
val timeline_rows : ?width:int -> Trace.t -> string array

(** Complete ASCII timeline with header, rows and legend. *)
val timeline : ?width:int -> ?title:string -> Trace.t -> string

(** Machine-readable transitions: [time_ns,cap,state] lines. *)
val to_csv : Trace.t -> string
