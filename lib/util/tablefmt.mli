(** Minimal ASCII table rendering for experiment reports, in the style
    of the paper's Fig. 1. *)

type align = Left | Right

type t

(** [create ?aligns headers]: a new table.  [aligns] defaults to
    all-[Left] and must match the header count when given. *)
val create : ?aligns:align list -> string list -> t

(** @raise Invalid_argument if the row arity differs from the header
    arity. *)
val add_row : t -> string list -> unit

val to_string : t -> string

(** Print to stdout (with trailing newline). *)
val print : t -> unit
