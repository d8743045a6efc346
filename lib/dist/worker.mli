(** PE-side entry point of the distributed executor.  Workers are
    fresh [create_process] spawns of the host binary (OCaml 5 forbids
    [Unix.fork] once any domain has been created), recognised by the
    marker argument ["--dist-worker"] in [argv]; host executables call
    {!maybe_run} before their normal main. *)

(** [[| Sys.executable_name; "--dist-worker" |]] — re-execute this
    binary as a worker. *)
val default_argv : unit -> string array

(** [maybe_run argv], iff [argv] marks a worker invocation, serves one
    coordinator session and exits, never returning; otherwise it
    returns at once.  Over the socketpair transport stdin carries the
    messages (both directions); over shm (selected by the one argv
    token the PE accepts after the marker, [shm=PATH]) stdin is only
    the doorbell and messages flow through the mapped rings.  The
    protocol is the same over both. *)
val maybe_run : string array -> unit
