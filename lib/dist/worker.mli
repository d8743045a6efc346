(** PE-side entry point of the distributed executor.  Workers are
    fresh [create_process] spawns of the host binary (OCaml 5 forbids
    [Unix.fork] once any domain has been created), recognised by the
    marker argument ["--dist-worker"] in [argv]; host executables call
    {!maybe_run} before their normal main. *)

(** [[| Sys.executable_name; "--dist-worker" |]] — re-execute this
    binary as a worker. *)
val default_argv : unit -> string array

(** [edge_token dir fd seg] is the argv token that hands a PE one of
    its two ring edges, [`In] from its left neighbour or [`Out] to its
    right one: [fd] is the descriptor the PE inherits, and over shm
    [seg] is the edge's segment, whose doorbell [fd] is. *)
val edge_token : [ `In | `Out ] -> Unix.file_descr -> string option -> string

(** [maybe_run argv], iff [argv] marks a worker invocation, serves one
    coordinator session and exits, never returning; otherwise it
    returns at once.  Over the socketpair transport stdin carries the
    messages (both directions); over shm (selected by the argv token
    [shm=PATH] after the marker) stdin is only the doorbell and
    messages flow through the mapped rings.  The protocol is the same
    over both.  On two or more PEs the PE's ring edges follow, made by
    {!edge_token}. *)
val maybe_run : string array -> unit
