(** Tests for the runtime-system simulator: charging, scheduling,
    blocking, sparks, GC barriers, distributed mode, messaging,
    determinism. *)

module Rts = Repro_parrts.Rts
module Api = Repro_parrts.Rts.Api
module Config = Repro_parrts.Config
module Report = Repro_parrts.Report
module Cost = Repro_util.Cost
module Machine = Repro_machine.Machine
module Gc_model = Repro_heap.Gc_model
module Transport = Repro_mp.Transport

let test_case = Alcotest.test_case
let check = Alcotest.check

(* A 1 GHz single-socket machine makes cycle/ns arithmetic exact. *)
let m1ghz cores = Machine.make ~name:"test1ghz" ~cores ~clock_ghz:1.0 ()

let cfg ?(ncaps = 4) ?(cores = ncaps) () =
  let c = Config.default ~machine:(m1ghz cores) ~ncaps () in
  { c with trace_enabled = true }

let charge_advances_time () =
  let v, report = Rts.run (cfg ~ncaps:1 ()) (fun () ->
      Api.charge (Cost.cycles 1_000_000);
      Api.now_ns ())
  in
  (* 1e6 cycles at 1 GHz = 1e6 ns *)
  check Alcotest.int "1M cycles -> 1ms" 1_000_000 v;
  check Alcotest.int "elapsed equals" 1_000_000 report.Report.elapsed_ns

let charge_zero_is_free () =
  let v, _ = Rts.run (cfg ~ncaps:1 ()) (fun () ->
      Api.charge Cost.zero;
      Api.now_ns ())
  in
  check Alcotest.int "no time" 0 v

let spawn_and_join () =
  let v, report = Rts.run (cfg ~ncaps:2 ()) (fun () ->
      let done_flag = ref false in
      let waiters = ref [] in
      ignore
        (Api.spawn (fun () ->
             Api.charge (Cost.cycles 1000);
             done_flag := true;
             List.iter (fun k -> k ()) !waiters;
             waiters := []));
      if not !done_flag then
        Api.block (fun wake -> waiters := wake :: !waiters);
      !done_flag)
  in
  check Alcotest.bool "child ran" true v;
  check Alcotest.int "two threads" 2 report.Report.threads_created

let block_and_wake_ordering () =
  (* The blocked thread must resume only after the waker fires. *)
  let v, _ = Rts.run (cfg ~ncaps:2 ()) (fun () ->
      let cell = ref None in
      let waiter = ref None in
      ignore
        (Api.spawn (fun () ->
             Api.charge (Cost.cycles 50_000);
             cell := Some (Api.now_ns ());
             match !waiter with Some k -> k () | None -> ()));
      Api.block (fun wake -> waiter := Some wake);
      (Option.get !cell, Api.now_ns ()))
  in
  let set_at, woke_at = v in
  check Alcotest.bool "woke after set" true (woke_at >= set_at);
  check Alcotest.bool "value was set" true (set_at >= 50_000)

let sparks_fizzle_when_done () =
  (* still_needed = false: when the idle capability activates the
     pushed spark it must fizzle, not run *)
  let _, report = Rts.run (cfg ~ncaps:2 ()) (fun () ->
      let ran = ref false in
      Api.spark ~still_needed:(fun () -> false) (fun () -> ran := true);
      (* keep the main thread busy long enough for distribution *)
      Api.charge (Cost.make 30_000_000 ~alloc:3_000_000);
      if !ran then failwith "fizzled spark must not run")
  in
  check Alcotest.int "fizzled" 1 report.Report.sparks.fizzled;
  check Alcotest.int "not converted" 0 report.Report.sparks.converted

let stealing_distributes () =
  let c = { (cfg ~ncaps:4 ()) with load_balance = Config.Work_stealing } in
  let caps_used, report = Rts.run c (fun () ->
      let used = Array.make 4 false in
      let remaining = ref 16 in
      let waiter = ref None in
      for _ = 1 to 16 do
        Api.spark ~still_needed:(fun () -> true) (fun () ->
            used.(Api.my_cap ()) <- true;
            Api.charge (Cost.make 2_000_000 ~alloc:8192);
            decr remaining;
            if !remaining = 0 then Option.iter (fun k -> k ()) !waiter)
      done;
      if !remaining > 0 then Api.block (fun wake -> waiter := Some wake);
      Array.to_list used)
  in
  check Alcotest.int "all sparks ran" 16
    (report.Report.sparks.converted + report.Report.sparks.fizzled);
  check Alcotest.bool "stealing happened" true (report.Report.sparks.stolen > 0);
  check Alcotest.bool "several caps used" true
    (List.length (List.filter Fun.id caps_used) >= 3)

let pushing_distributes () =
  let c = { (cfg ~ncaps:4 ()) with load_balance = Config.Push_polling } in
  let _, report = Rts.run c (fun () ->
      let remaining = ref 12 in
      let waiter = ref None in
      for _ = 1 to 12 do
        Api.spark ~still_needed:(fun () -> true) (fun () ->
            Api.charge (Cost.make 2_000_000 ~alloc:8192);
            decr remaining;
            if !remaining = 0 then Option.iter (fun k -> k ()) !waiter)
      done;
      (* keep the main thread busy so pushes come from the poll path *)
      Api.charge (Cost.make 30_000_000 ~alloc:3_000_000);
      if !remaining > 0 then Api.block (fun wake -> waiter := Some wake))
  in
  check Alcotest.bool "pushes happened" true (report.Report.sparks.pushed > 0);
  check Alcotest.int "no steals in push mode" 0 report.Report.sparks.stolen

let gc_barrier_stops_world () =
  (* allocate 3x the nursery: at least 2 collections must happen, and
     they must be visible as Gc time on every capability *)
  let c = cfg ~ncaps:2 () in
  let _, report = Rts.run c (fun () ->
      Api.charge (Cost.make 10_000_000 ~alloc:(3 * c.gc.Gc_model.alloc_area)))
  in
  check Alcotest.bool "minor GCs happened" true (report.Report.gc.minors >= 2);
  check Alcotest.bool "pauses accounted" true (report.Report.gc.pause_total_ns > 0);
  let gc_frac = Repro_trace.Trace.state_fraction report.trace Repro_trace.Trace.Gc in
  check Alcotest.bool "GC visible on the timeline" true (gc_frac > 0.0)

let distributed_gc_is_local () =
  (* In distributed mode a PE collecting its heap must not stop the
     other PE: total elapsed stays close to the busy PE's work. *)
  let c =
    { (cfg ~ncaps:2 ()) with heap_mode = Config.Distributed Transport.shm }
  in
  let _, report = Rts.run c (fun () ->
      let done_ref = ref false and waiter = ref None in
      ignore
        (Api.spawn ~cap:1 (fun () ->
             (* PE 1 allocates heavily: many local GCs *)
             Api.charge (Cost.make 5_000_000 ~alloc:(4 * c.gc.Gc_model.alloc_area));
             done_ref := true;
             Option.iter (fun k -> k ()) !waiter));
      if not !done_ref then Api.block (fun wake -> waiter := Some wake))
  in
  check Alcotest.bool "local GCs happened" true (report.Report.gc.minors >= 3);
  check Alcotest.int "no barrier waits in distributed mode" 0
    report.Report.gc.barrier_wait_ns

let messages_have_latency () =
  let tr = Transport.pvm in
  let c = { (cfg ~ncaps:2 ()) with heap_mode = Config.Distributed tr } in
  let (sent_at, recv_at), report = Rts.run c (fun () ->
      let got = ref None and waiter = ref None in
      let bytes = 10_000 in
      let t0 = Api.now_ns () in
      Api.send ~dst:1 ~bytes (fun () ->
          got := Some ();
          Option.iter (fun k -> k ()) !waiter);
      let sent_done = Api.now_ns () in
      if !got = None then Api.block (fun wake -> waiter := Some wake);
      (* we observe the wake on cap 0; delivery happened on PE 1 at or
         before our wake *)
      ignore t0;
      (sent_done, Api.now_ns ()))
  in
  check Alcotest.int "one message" 1 report.Report.messages.sent;
  check Alcotest.int "bytes counted" 10_000 report.Report.messages.bytes;
  (* sender paid pack cost *)
  check Alcotest.bool "send-side time" true (sent_at > 0);
  check Alcotest.bool "flight latency" true
    (recv_at - sent_at >= Transport.flight_ns tr 10_000)

let oversubscription_slows () =
  (* 4 virtual PEs on 1 core must take ~4x the 1-PE time *)
  let work () =
    let remaining = ref 4 and waiter = ref None in
    for pe = 0 to 3 do
      ignore
        (Api.spawn ~cap:pe (fun () ->
             Api.charge (Cost.cycles 1_000_000);
             decr remaining;
             if !remaining = 0 then Option.iter (fun k -> k ()) !waiter))
    done;
    if !remaining > 0 then Api.block (fun wake -> waiter := Some wake)
  in
  let c4on1 =
    { (cfg ~ncaps:4 ~cores:1 ()) with heap_mode = Config.Distributed Transport.shm }
  in
  let _, r_over = Rts.run c4on1 work in
  let c4on4 =
    { (cfg ~ncaps:4 ~cores:4 ()) with heap_mode = Config.Distributed Transport.shm }
  in
  let _, r_par = Rts.run c4on4 work in
  let ratio =
    float_of_int r_over.Report.elapsed_ns /. float_of_int r_par.Report.elapsed_ns
  in
  check Alcotest.bool "multiplexing costs ~4x" true (ratio > 3.0 && ratio < 5.0)

let determinism () =
  let run () =
    Rts.run { (cfg ~ncaps:4 ()) with load_balance = Config.Work_stealing }
      (fun () -> Repro_workloads.Sumeuler.gph ~n:500 ())
  in
  let v1, r1 = run () in
  let v2, r2 = run () in
  check Alcotest.int "same result" v1 v2;
  check Alcotest.int "same virtual time" r1.Report.elapsed_ns r2.Report.elapsed_ns;
  check Alcotest.int "same GC count" r1.Report.gc.minors r2.Report.gc.minors;
  check Alcotest.int "same steals" r1.Report.sparks.stolen r2.Report.sparks.stolen

let deadlock_detected () =
  match
    Rts.run (cfg ~ncaps:1 ()) (fun () -> Api.block (fun _wake -> ()))
  with
  | exception Rts.Deadlock msg ->
      check Alcotest.bool "diagnostic mentions blocked threads" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected Deadlock"

let timeslice_rotates () =
  (* two threads on one cap must interleave at timeslice granularity *)
  let c = { (cfg ~ncaps:1 ()) with timeslice_ns = 1_000_000 } in
  let v, _ = Rts.run c (fun () ->
      let log = ref [] in
      let remaining = ref 2 and waiter = ref None in
      for id = 1 to 2 do
        ignore
          (Api.spawn (fun () ->
               for _ = 1 to 8 do
                 Api.charge (Cost.make 500_000 ~alloc:8192);
                 log := id :: !log
               done;
               decr remaining;
               if !remaining = 0 then Option.iter (fun k -> k ()) !waiter))
      done;
      if !remaining > 0 then Api.block (fun wake -> waiter := Some wake);
      List.rev !log)
  in
  (* both ids appear before either finishes all 8 slots *)
  let first_12 = List.filteri (fun i _ -> i < 12) v in
  check Alcotest.bool "interleaved" true
    (List.mem 1 first_12 && List.mem 2 first_12)

let nested_run_rejected () =
  ignore
    (Rts.run (cfg ~ncaps:1 ()) (fun () ->
         (try
            ignore (Rts.run (cfg ~ncaps:1 ()) (fun () -> ()));
            failwith "nested run must fail"
          with Failure msg ->
            check Alcotest.bool "error mentions nesting" true
              (String.length msg > 0));
         ()))

let workload_exception_propagates () =
  Alcotest.check_raises "exception escapes" (Failure "boom") (fun () ->
      ignore (Rts.run (cfg ~ncaps:1 ()) (fun () -> failwith "boom")))

(* Perfbench's sim workload at its smoke sizes: the five kernels under
   GpH steal+eager on 8 caps and Eden on 8 PEs, both on intel8, apsp on
   seed 1.  Every figure is a literal, so a change to the engine or the
   charge loop that adds or drops one event, or moves one virtual time,
   fails here however loaded the machine is; the order of events is
   pinned by [pinned_order]. *)
let pinned_fields =
  [ "elapsed_ns"; "gc minors"; "gc majors"; "sparks created";
    "sparks converted"; "sparks fizzled"; "messages sent"; "message bytes";
    "dup_work_entries"; "blocked_forces"; "engine events" ]

let pinned_values (r : Report.t) =
  [ r.elapsed_ns; r.gc.minors; r.gc.majors; r.sparks.created;
    r.sparks.converted; r.sparks.fizzled; r.messages.sent; r.messages.bytes;
    r.dup_work_entries; r.blocked_forces; r.engine_events ]

let pinned =
  [ ("sumeuler", "gph", [ 17_149_276; 0; 0; 32; 28; 4; 0; 0; 0; 3; 5_349 ]);
    ("sumeuler", "eden", [ 16_614_735; 16; 0; 0; 0; 0; 21; 56_328; 0; 0; 2_317 ]);
    ("parfib", "gph", [ 80_032; 0; 0; 88; 43; 45; 0; 0; 0; 41; 672 ]);
    ("parfib", "eden", [ 206_867; 0; 0; 0; 0; 0; 21; 4_368; 0; 0; 180 ]);
    ("matmul", "gph", [ 527_603; 0; 0; 16; 14; 2; 0; 0; 0; 2; 965 ]);
    ("matmul", "eden", [ 1_159_930; 0; 0; 0; 0; 0; 24; 162_432; 0; 0; 196 ]);
    ("mandelbrot", "gph", [ 242_375; 0; 0; 60; 41; 19; 0; 0; 0; 2; 330 ]);
    ("mandelbrot", "eden", [ 597_440; 0; 0; 0; 0; 0; 134; 7_536; 0; 0; 592 ]);
    ("apsp", "gph", [ 118_335; 0; 0; 40; 40; 0; 0; 0; 0; 297; 924 ]);
    ("apsp", "eden", [ 792_840; 0; 0; 0; 0; 0; 302; 114_480; 0; 0; 1_501 ]) ]

let pinned_sim_statistics () =
  let module W = Repro_workloads in
  let module V = Repro_core.Versions in
  let bits = Repro_exec.Workload.float_bits in
  let gph = V.with_eager (V.gph_steal ~machine:Machine.intel8 ~ncaps:8 ()) in
  let eden = V.eden ~machine:Machine.intel8 ~npes:8 () in
  let run = function
    | "sumeuler", "gph" -> (gph, fun () -> W.Sumeuler.gph ~n:1500 ())
    | "sumeuler", "eden" -> (eden, fun () -> W.Sumeuler.eden ~n:1500 ())
    | "parfib", "gph" -> (gph, fun () -> W.Parfib.gph ~n:20 ~threshold:12 ())
    | "parfib", "eden" -> (eden, fun () -> W.Parfib.eden ~n:20 ~depth:3 ())
    | "matmul", "gph" -> (gph, fun () -> bits (W.Matmul.gph ~n:100 ()))
    | "matmul", "eden" ->
        (eden, fun () -> bits (W.Matmul.eden_cannon ~n:100 ~q:2 ()))
    | "mandelbrot", "gph" ->
        (gph, fun () -> W.Mandelbrot.gph ~width:60 ~height:60 ())
    | "mandelbrot", "eden" ->
        (eden, fun () -> W.Mandelbrot.eden_mw ~width:60 ~height:60 ())
    | "apsp", "gph" -> (gph, fun () -> bits (W.Apsp.gph ~seed:1 ~n:40 ()))
    | "apsp", "eden" -> (eden, fun () -> bits (W.Apsp.eden_ring ~seed:1 ~n:40 ()))
    | k, l -> invalid_arg (k ^ "/" ^ l)
  in
  let reference = function
    | "sumeuler" -> W.Euler.sum_euler_ref 1500
    | "parfib" -> W.Parfib.reference 20
    | "matmul" -> bits 0.0 (* the synthetic payload charges, returns 0.0 *)
    | "mandelbrot" -> W.Mandelbrot.reference ~width:60 ~height:60 ()
    | _ -> bits (W.Apsp.checksum (W.Apsp.floyd_warshall (W.Apsp.graph ~seed:1 40)))
  in
  List.iter
    (fun (kernel, label, want) ->
      let (v : V.version), f = run (kernel, label) in
      let got, report = Rts.run v.config f in
      let what = kernel ^ "/" ^ label in
      check Alcotest.int (what ^ " checksum") (reference kernel) got;
      check
        Alcotest.(list (pair string int))
        what
        (List.combine pinned_fields want)
        (List.combine pinned_fields (pinned_values report)))
    pinned

(* Where a same-instant reorder shows: apsp 60 (seed 7) under GpH
   stealing with lazy and with eager black-holing, on intel8 with 8
   caps and on amd16 with 16, and Eden's Cannon matmul on 16 PEs of
   amd16.  Each run pins its virtual time, its engine events and the
   digest of its event log, so a change to the engine or the charge
   loop that swaps two events of one instant fails here even where
   every statistic of [pinned_sim_statistics] stays equal. *)
let pinned_order =
  [ ("intel8/8 steal", 512_355, 3_043, "992ee93c92ceacd25ccfcecf32d5308e");
    ("intel8/8 steal-eager", 338_766, 2_490, "427bf4fe60d3dfbc160dfdce22700101");
    ("amd16/16 steal", 389_055, 4_990, "59dd675305afdede6ac9136c8583d630");
    ("amd16/16 steal-eager", 281_141, 3_093, "d98c1c150f860de80269584230091f34");
    ("amd16/16 eden matmul", 2_082_260, 1_170, "c1a7c983040070c4457aa6e573334b97") ]

let pinned_event_order () =
  let module W = Repro_workloads in
  let module V = Repro_core.Versions in
  let bits = Repro_exec.Workload.float_bits in
  let apsp () = bits (W.Apsp.gph ~n:60 ()) in
  let steal machine ncaps = V.gph_steal ~machine ~ncaps () in
  let run = function
    | "intel8/8 steal" -> (steal Machine.intel8 8, apsp)
    | "intel8/8 steal-eager" -> (V.with_eager (steal Machine.intel8 8), apsp)
    | "amd16/16 steal" -> (steal Machine.amd16 16, apsp)
    | "amd16/16 steal-eager" -> (V.with_eager (steal Machine.amd16 16), apsp)
    | "amd16/16 eden matmul" ->
        ( V.eden ~machine:Machine.amd16 ~npes:16 (),
          fun () -> bits (W.Matmul.eden_cannon ~n:200 ~q:4 ()) )
    | what -> invalid_arg what
  in
  List.iter
    (fun (what, elapsed_ns, events, digest) ->
      let (v : V.version), f = run what in
      let _, (r : Report.t) = Rts.run v.config f in
      check
        Alcotest.(triple int int string)
        what (elapsed_ns, events, digest)
        ( r.elapsed_ns,
          r.engine_events,
          Digest.to_hex (Digest.string (Repro_trace.Eventlog.dump r.eventlog)) ))
    pinned_order

let suite =
  ( "rts",
    [
      test_case "charge advances virtual time" `Quick charge_advances_time;
      test_case "zero charge is free" `Quick charge_zero_is_free;
      test_case "spawn and join" `Quick spawn_and_join;
      test_case "block/wake ordering" `Quick block_and_wake_ordering;
      test_case "sparks fizzle" `Quick sparks_fizzle_when_done;
      test_case "work stealing distributes" `Quick stealing_distributes;
      test_case "push polling distributes" `Quick pushing_distributes;
      test_case "gc barrier stops the world" `Quick gc_barrier_stops_world;
      test_case "distributed gc is local" `Quick distributed_gc_is_local;
      test_case "messages have latency" `Quick messages_have_latency;
      test_case "oversubscription slows PEs" `Quick oversubscription_slows;
      test_case "determinism" `Quick determinism;
      test_case "deadlock detected" `Quick deadlock_detected;
      test_case "timeslice rotates run queue" `Quick timeslice_rotates;
      test_case "nested run rejected" `Quick nested_run_rejected;
      test_case "workload exception propagates" `Quick workload_exception_propagates;
      test_case "pinned sim statistics" `Quick pinned_sim_statistics;
      test_case "event order pinned" `Quick pinned_event_order;
    ] )
