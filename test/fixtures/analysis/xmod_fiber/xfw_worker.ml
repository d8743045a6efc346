(* seeded violations: each call blocks the worker through a helper in
   fiber.ml, so each helper's blocking line is flagged once *)
let rec worker_loop m fd =
  Fiber.await m;
  Fiber.sleep 0.5;
  Fiber.drain fd;
  worker_loop m fd
