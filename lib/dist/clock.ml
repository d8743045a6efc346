(** Shared timebase for every PE: CLOCK_MONOTONIC via bechamel's
    noalloc stub.  The clock is system-wide on Linux, so timestamps
    recorded in worker processes are directly comparable with the
    coordinator's — which is what lets {!Farm.spans} draw wire spans
    (coordinator send-done to worker receive-done) across the process
    boundary. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
