(** Models of the paper's two measurement platforms.

    The paper (Sec. V) measures on:
    - an Intel 8-core machine (2 x Xeon quad-core @ 1.86 GHz, 16 GB RAM,
      MS Research Cambridge), and
    - an AMD 16-core machine (4 x Opteron quad-core @ 2.3 GHz, 132 GB
      RAM, LMU Munich).

    A machine converts abstract work (cycles) into virtual nanoseconds
    and supplies the memory-system parameters used by the cache-pressure
    penalty model.  The penalty model is what lets the simulator
    reproduce the paper's Fig.-4 observation that Eden with *more virtual
    PEs than physical cores* wins: smaller per-PE heaps fit caches better
    and are collected faster. *)

type t = {
  name : string;
  cores : int;
  clock_hz : float;  (** per-core clock *)
  cache_bytes : int;  (** effective per-core cache (L2/L3 share) *)
  mem_penalty_max : float;
      (** multiplier on mutator work when the working set far exceeds
          cache *)
  os_quantum_ns : int;
      (** OS scheduling quantum used when multiplexing more virtual PEs
          than physical cores *)
  os_switch_ns : int;  (** OS context-switch cost when multiplexing *)
}

let make ~name ~cores ~clock_ghz ?(cache_mb = 4) ?(mem_penalty_max = 1.8)
    ?(os_quantum_ns = 10_000_000) ?(os_switch_ns = 8_000) () =
  if cores <= 0 then invalid_arg "Machine.make: cores must be positive";
  if clock_ghz <= 0.0 then invalid_arg "Machine.make: clock must be positive";
  {
    name;
    cores;
    clock_hz = clock_ghz *. 1e9;
    cache_bytes = cache_mb * 1024 * 1024;
    mem_penalty_max;
    os_quantum_ns;
    os_switch_ns;
  }

(* 2 x Intel Xeon quad-core @ 1.86 GHz (MS Research Cambridge);
   Clovertown-class parts share 8 MB of L2 among 4 cores. *)
let intel8 = make ~name:"intel8" ~cores:8 ~clock_ghz:1.86 ~cache_mb:2 ()

(* 4 x AMD Opteron quad-core @ 2.3 GHz (LMU Munich); Barcelona-class
   parts have 512 kB L2 per core plus 2 MB shared L3. *)
let amd16 = make ~name:"amd16" ~cores:16 ~clock_ghz:2.3 ~cache_mb:1 ()

let with_cores m cores = { m with cores; name = Printf.sprintf "%s/%d" m.name cores }

let ns_of_cycles m cycles =
  if cycles = 0 then 0
  else
    let ns = float_of_int cycles /. m.clock_hz *. 1e9 in
    Int.max 1 (int_of_float (Float.round ns))

let cycles_of_ns m ns = int_of_float (Float.round (float_of_int ns /. 1e9 *. m.clock_hz))

(* Cache-pressure multiplier on mutator work.

   [working_set] is the live-data footprint the computation touches
   (bytes).  Below the per-core cache size the multiplier is 1.0; above
   it, it grows smoothly and saturates at [mem_penalty_max].  The curve
   is a saturating rational function: penalty = 1 + (max-1) * r/(r+1)
   where r = (ws - cache)/cache, capped. *)
let mem_penalty m ~working_set =
  if working_set <= m.cache_bytes then 1.0
  else
    let r =
      float_of_int (working_set - m.cache_bytes) /. float_of_int m.cache_bytes
    in
    1.0 +. ((m.mem_penalty_max -. 1.0) *. (r /. (r +. 1.0)))
