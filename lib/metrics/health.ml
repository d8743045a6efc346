(* Thresholds are deliberately generous: detectors flag pathological
   regimes (a storm, a stall), not the high-but-healthy contention any
   small --quick run exhibits. *)

type verdict = { rule : string; triggered : bool; detail : string }

let ratio num den = if den <= 0. then 0. else num /. den

(* Ignore runs with fewer steal attempts than this. *)
let steal_min_attempts = 5_000.

(* Failed/attempted above this is a storm... *)
let steal_fail_ratio = 0.98

(* ...but only when attempts outrun parks by this factor (parking
   workers are famished, not storming). *)
let steal_attempts_per_park = 512.

let steal_storm snap =
  let attempts = Metrics.total snap "repro_steal_attempts_total" in
  let steals = Metrics.total snap "repro_steals_total" in
  let parks = Metrics.total snap "repro_pool_parks_total" in
  let fail = ratio (attempts -. steals) attempts in
  let per_park = ratio attempts (Float.max 1. parks) in
  {
    rule = "steal-failure-storm";
    triggered =
      attempts >= steal_min_attempts
      && fail > steal_fail_ratio
      && per_park > steal_attempts_per_park;
    detail =
      Printf.sprintf "%.0f attempts, %.1f%% failed, %.0f attempts/park" attempts
        (100. *. fail) per_park;
  }

let fizzle_min_created = 1_024.

(* Fizzled/created above this. *)
let fizzle_ratio = 0.95

let spark_fizzle snap =
  let created = Metrics.total snap "repro_pool_sparks_created_total" in
  let fizzled = Metrics.total snap "repro_pool_sparks_fizzled_total" in
  let r = ratio fizzled created in
  {
    rule = "spark-fizzle-ratio";
    triggered = created >= fizzle_min_created && r > fizzle_ratio;
    detail = Printf.sprintf "%.0f created, %.0f fizzled (%.1f%%)" created fizzled (100. *. r);
  }

let backpressure_min_waits = 512.

(* Waits per sent message above this. *)
let backpressure_per_msg = 4.

let backpressure_stall snap =
  let waits = Metrics.total snap "repro_ring_backpressure_waits_total" in
  let msgs = Metrics.total snap "repro_wire_msgs_sent_total" in
  let per_msg = ratio waits (Float.max 1. msgs) in
  {
    rule = "ring-backpressure-stall";
    triggered = waits >= backpressure_min_waits && per_msg > backpressure_per_msg;
    detail = Printf.sprintf "%.0f full-ring waits over %.0f sent msgs (%.1f/msg)" waits msgs per_msg;
  }

(* Rates are meaningless on shorter runs. *)
let gc_min_elapsed_s = 0.05

let gc_minor_per_sec = 200_000.
let gc_major_per_sec = 2_000.

let gc_pressure snap =
  let secs = float_of_int snap.Metrics.elapsed_ns /. 1e9 in
  let minor = Metrics.total snap "repro_gc_minor_collections" in
  let major = Metrics.total snap "repro_gc_major_collections" in
  let minor_rate = ratio minor secs and major_rate = ratio major secs in
  {
    rule = "gc-pause-budget";
    triggered =
      secs >= gc_min_elapsed_s
      && (minor_rate > gc_minor_per_sec || major_rate > gc_major_per_sec);
    detail =
      Printf.sprintf "%.0f minor/s, %.1f major/s over %.2fs (budget %.0f, %.0f)" minor_rate
        major_rate secs gc_minor_per_sec gc_major_per_sec;
  }

(* Fibers still live at snapshot time: a collector snapshotted after
   the workload drained (the CLI's --strict-health path) should see the
   live gauge back at zero — anything left is a parked fiber whose
   wakeup never came, i.e. a leak.  The gauge is a float total over
   collectors; > 0.5 is "at least one" without trusting float
   equality. *)
let fiber_leak snap =
  let spawned = Metrics.total snap "repro_fiber_spawned_total" in
  let live = Metrics.total snap "repro_fiber_live" in
  {
    rule = "fiber-leak";
    triggered = spawned > 0. && live > 0.5;
    detail =
      Printf.sprintf "%.0f fibers still live of %.0f spawned" live spawned;
  }

let evaluate snap =
  [
    steal_storm snap;
    spark_fizzle snap;
    backpressure_stall snap;
    gc_pressure snap;
    fiber_leak snap;
  ]

let pp fmt verdicts =
  List.iter
    (fun v ->
      Format.fprintf fmt "health: %-4s %-24s (%s)@."
        (if v.triggered then "FAIL" else "OK")
        v.rule v.detail)
    verdicts

let exit_code verdicts = if List.exists (fun v -> v.triggered) verdicts then 3 else 0
