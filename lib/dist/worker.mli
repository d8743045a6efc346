(** PE-side entry point of the distributed executor.  Workers are
    fresh [create_process] spawns of the host binary (OCaml 5 forbids
    [Unix.fork] once any domain has been created), recognised by
    {!marker} in [argv]; host executables call {!maybe_run} before
    their normal main. *)

(** First argv argument marking a worker invocation
    (["--dist-worker"]). *)
val marker : string

(** [[| Sys.executable_name; marker |]] — re-execute this binary as a
    worker. *)
val default_argv : unit -> string array

(** Serve one coordinator session, then [exit]; never returns.  Over
    the socketpair transport stdin carries the messages (both
    directions); over shm (selected by the one argv token the PE
    accepts after {!marker}, [shm=PATH]) stdin is only the doorbell
    and messages flow through the mapped rings.  The protocol is the
    same over both. *)
val main : string array -> 'a

(** [maybe_run argv] runs {!main} (never returning) iff [argv] marks a
    worker invocation; otherwise returns immediately. *)
val maybe_run : string array -> unit
