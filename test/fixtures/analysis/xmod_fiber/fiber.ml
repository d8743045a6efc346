(* a module named Fiber with fiber-style names: await, sleep and drain
   all block the calling domain, and neither the file name nor the
   function names exempt them from blocking-in-worker *)
let await m = Mutex.lock m
let sleep secs = Unix.sleepf secs
let drain fd = ignore (Unix.select [ fd ] [] [] (-1.0))
