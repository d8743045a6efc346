(* seeded violations: a fiber-style name and the [@sanctioned_blocking]
   attribute exempt nothing; both helpers block the worker *)
let fiber_await fd = ignore (Unix.select [ fd ] [] [] (-1.0))
let[@sanctioned_blocking] park_until_ready m = Mutex.lock m

let rec worker_loop fd m =
  fiber_await fd;
  park_until_ready m;
  worker_loop fd m
