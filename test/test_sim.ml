(** Tests for the discrete-event engine, the trace recorder/renderers
    and the machine model. *)

module Engine = Repro_sim.Engine
module Trace = Repro_trace.Trace
module Render = Repro_trace.Render
module Machine = Repro_machine.Machine

let test_case = Alcotest.test_case
let check = Alcotest.check

(* ---------------- Engine ---------------- *)

let engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 30 (fun () -> log := 30 :: !log);
  Engine.at e 10 (fun () -> log := 10 :: !log);
  Engine.at e 20 (fun () -> log := 20 :: !log);
  let final = Engine.run e in
  check Alcotest.(list int) "time order" [ 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "final time" 30 final;
  check Alcotest.int "dispatched" 3 (Engine.dispatched e)

let engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter (fun i -> Engine.at e 5 (fun () -> log := i :: !log)) [ 1; 2; 3 ];
  ignore (Engine.run e);
  check Alcotest.(list int) "stable at same instant" [ 1; 2; 3 ] (List.rev !log)

let engine_drained () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter (fun time -> Engine.at e time (fun () -> log := time :: !log)) [ 5; 1; 3 ];
  check Alcotest.int "drains to the last event" 5 (Engine.run e);
  check Alcotest.(list int) "earliest first" [ 1; 3; 5 ] (List.rev !log);
  check Alcotest.int "drained: nothing left to run" 5 (Engine.run e);
  check Alcotest.int "still 3 dispatched" 3 (Engine.dispatched e)

let engine_ties_after_earlier () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun (time, v) -> Engine.at e time (fun () -> log := v :: !log))
    [ (7, "a"); (2, "x"); (7, "b"); (7, "c"); (7, "d") ];
  ignore (Engine.run e);
  check Alcotest.(list string) "FIFO among equal times" [ "x"; "a"; "b"; "c"; "d" ]
    (List.rev !log)

let engine_empty () =
  let e = Engine.create () in
  check Alcotest.int "empty run" 0 (Engine.run e);
  check Alcotest.int "nothing dispatched" 0 (Engine.dispatched e)

let engine_qcheck_sorted =
  QCheck.Test.make ~name:"engine drains in sorted stable order" ~count:300
    QCheck.(list small_nat)
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i time ->
          Engine.at e time (fun () -> fired := (Engine.now e, time, i) :: !fired))
        times;
      ignore (Engine.run e);
      let fired = List.rev !fired in
      List.for_all (fun (now, time, _) -> now = time) fired
      && List.map (fun (_, time, i) -> (time, i)) fired
         = List.sort compare (List.mapi (fun i time -> (time, i)) times))

let rec remove_one x = function
  | [] -> []
  | y :: ys -> if x = y then ys else y :: remove_one x ys

(* Adds interleaved with firings: [Some d] schedules an event [d] ns
   from now, [None] lets the engine fire one.  Every firing must be the
   earliest pending event (tracked by a reference multiset), at its own
   time. *)
let engine_qcheck_interleaved =
  QCheck.Test.make ~name:"engine fires the current minimum" ~count:200
    QCheck.(list (option small_nat))
    (fun ops ->
      let e = Engine.create () in
      let ops = ref ops and pending = ref [] and ok = ref true in
      let rec feed () =
        match !ops with
        | [] -> ()
        | None :: rest ->
            ops := rest;
            if !pending = [] then feed ()
        | Some d :: rest ->
            ops := rest;
            let time = Engine.now e + d in
            pending := time :: !pending;
            Engine.at e time (fun () -> fire time);
            feed ()
      and fire time =
        let earliest = List.fold_left Int.min max_int !pending in
        if time <> earliest || Engine.now e <> time then ok := false;
        pending := remove_one earliest !pending;
        feed ()
      in
      feed ();
      ignore (Engine.run e);
      !ok && !pending = [] && !ops = [])

let engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 10 (fun () ->
      log := "a" :: !log;
      Engine.after e 5 (fun () -> log := "b" :: !log);
      Engine.after e 0 (fun () -> log := "a2" :: !log));
  ignore (Engine.run e);
  check Alcotest.(list string) "nested events" [ "a"; "a2"; "b" ] (List.rev !log)

let engine_rejects_past () =
  let e = Engine.create () in
  Engine.at e 10 (fun () -> ());
  ignore (Engine.run e);
  Alcotest.check_raises "past event"
    (Invalid_argument "Engine.at: time 5 is in the past (now=10)") (fun () ->
      Engine.at e 5 (fun () -> ()))

let engine_until () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 10 (fun () -> log := 10 :: !log);
  Engine.at e 50 (fun () -> log := 50 :: !log);
  let t = Engine.run ~until:20 e in
  check Alcotest.int "paused at limit" 20 t;
  check Alcotest.(list int) "only first fired" [ 10 ] (List.rev !log);
  ignore (Engine.run e);
  check Alcotest.(list int) "resumed" [ 10; 50 ] (List.rev !log)

let engine_until_keeps_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 50 (fun () -> log := "a" :: !log);
  Engine.at e 50 (fun () -> log := "b" :: !log);
  check Alcotest.int "paused at limit" 20 (Engine.run ~until:20 e);
  ignore (Engine.run e);
  check Alcotest.(list string) "scheduling order kept" [ "a"; "b" ] (List.rev !log)

let engine_until_in_the_past () =
  let e = Engine.create () in
  Engine.at e 15 ignore;
  Engine.at e 30 ignore;
  check Alcotest.int "paused at limit" 15 (Engine.run ~until:15 e);
  check Alcotest.int "an earlier limit keeps the clock" 15 (Engine.run ~until:5 e);
  Alcotest.check_raises "the past stays closed"
    (Invalid_argument "Engine.at: time 10 is in the past (now=15)") (fun () ->
      Engine.at e 10 ignore)

let engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.at e 1 (fun () ->
      incr count;
      Engine.stop e);
  Engine.at e 2 (fun () -> incr count);
  ignore (Engine.run e);
  check Alcotest.int "stopped early" 1 !count

let engine_horizon () =
  let e = Engine.create ~horizon:100 () in
  Engine.at e 101 (fun () -> ());
  Alcotest.check_raises "horizon" (Engine.Horizon_exceeded 101) (fun () ->
      ignore (Engine.run e))

(* A chain's event re-posts itself once per step, the step's delay
   later, with [after] or re-armed with [again], and may post a plain
   event just before and just after doing so.  Chain [i]'s [k]th firing
   logs [(i, k, 0)], its plain events [(i, k, 1)] (before) and
   [(i, k, 2)] (after). *)
let run_chains ~use_again program =
  let e = Engine.create () in
  let log = ref [] in
  let note id = log := (Engine.now e, id) :: !log in
  List.iteri
    (fun i (start, steps) ->
      let state = ref (0, steps) in
      let rec fire () =
        let k, steps = !state in
        note (i, k, 0);
        match steps with
        | [] -> ()
        | (delay, pre, post) :: rest ->
            state := (k + 1, rest);
            let plain tag d = Engine.after e d (fun () -> note (i, k, tag)) in
            Option.iter (plain 1) pre;
            if use_again then Engine.again e delay else Engine.after e delay fire;
            Option.iter (plain 2) post
      in
      Engine.at e start fire)
    program;
  ignore (Engine.run e);
  (List.rev !log, Engine.dispatched e)

let engine_qcheck_again =
  let small = QCheck.int_bound 4 in
  QCheck.Test.make ~name:"engine again == after" ~count:300
    QCheck.(
      small_list
        (pair (int_bound 12)
           (small_list (triple small (option small) (option small)))))
    (fun program ->
      run_chains ~use_again:true program = run_chains ~use_again:false program)

let engine_again_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  let note s = log := (s, Engine.now e) :: !log in
  let first = ref true in
  Engine.at e 10 (fun () ->
      if !first then begin
        first := false;
        note "r";
        Engine.after e 5 (fun () -> note "posted before again");
        Engine.again e 5;
        Engine.after e 5 (fun () -> note "posted after again")
      end
      else note "r again");
  Engine.at e 15 (fun () -> note "posted before the run");
  ignore (Engine.run e);
  check
    Alcotest.(list (pair string int))
    "scheduling order at the new instant"
    [ ("r", 10); ("posted before the run", 15); ("posted before again", 15);
      ("r again", 15); ("posted after again", 15) ]
    (List.rev !log);
  check Alcotest.int "every firing counted" 5 (Engine.dispatched e)

let engine_again_misuse () =
  let e = Engine.create () in
  Alcotest.check_raises "outside a dispatch"
    (Invalid_argument "Engine.again: no event is being dispatched") (fun () ->
      Engine.again e 1);
  let fired = ref 0 in
  Engine.at e 1 (fun () ->
      incr fired;
      if !fired = 1 then begin
        Engine.again e 1;
        Engine.again e 2
      end);
  Alcotest.check_raises "twice in one dispatch"
    (Invalid_argument "Engine.again: the event is re-armed already") (fun () ->
      ignore (Engine.run e));
  Alcotest.check_raises "outside a dispatch, after a failed run"
    (Invalid_argument "Engine.again: no event is being dispatched") (fun () ->
      Engine.again e 1);
  Engine.at e 2 (fun () -> ignore (Engine.run e));
  Alcotest.check_raises "no run from a handler"
    (Invalid_argument "Engine.run: called from a handler") (fun () ->
      ignore (Engine.run e))

let engine_again_raising_handler () =
  let e = Engine.create () in
  let plain = ref 0 and rearmed = ref 0 in
  Engine.at e 1 (fun () ->
      incr plain;
      failwith "plain");
  Engine.at e 2 (fun () ->
      incr rearmed;
      Engine.again e 1;
      failwith "re-armed");
  Alcotest.check_raises "first handler raises" (Failure "plain") (fun () ->
      ignore (Engine.run e));
  Alcotest.check_raises "second handler raises" (Failure "re-armed") (fun () ->
      ignore (Engine.run e));
  check Alcotest.int "nothing left to run" 2 (Engine.run e);
  check Alcotest.(pair int int) "each handler ran once" (1, 1) (!plain, !rearmed);
  check Alcotest.int "dispatched" 2 (Engine.dispatched e)

let engine_again_until () =
  let e = Engine.create () in
  let log = ref [] in
  let fired = ref 0 in
  Engine.at e 10 (fun () ->
      incr fired;
      log := ("r", Engine.now e) :: !log;
      if !fired = 1 then Engine.again e 40);
  Engine.at e 50 (fun () -> log := ("plain", Engine.now e) :: !log);
  check Alcotest.int "paused at limit" 20 (Engine.run ~until:20 e);
  check Alcotest.(list (pair string int)) "before the limit" [ ("r", 10) ] (List.rev !log);
  ignore (Engine.run e);
  check
    Alcotest.(list (pair string int))
    "re-armed event kept, after the plain one posted before it"
    [ ("r", 10); ("plain", 50); ("r", 50) ]
    (List.rev !log)

(* ---------------- Trace ---------------- *)

let trace_segments () =
  let t = Trace.create ~caps:2 in
  Trace.set_state t ~time:0 ~cap:0 Trace.Running;
  Trace.set_state t ~time:50 ~cap:0 Trace.Idle;
  Trace.set_state t ~time:80 ~cap:0 Trace.Running;
  Trace.finish t ~time:100;
  let segs = Trace.segments t in
  check Alcotest.int "cap0 segments" 3 (List.length segs.(0));
  (match segs.(0) with
  | [ (0, 50, Trace.Running); (50, 80, Trace.Idle); (80, 100, Trace.Running) ] ->
      ()
  | _ -> Alcotest.fail "unexpected segment structure");
  (* cap1 stayed idle the whole time *)
  match segs.(1) with
  | [ (0, 100, Trace.Idle) ] -> ()
  | _ -> Alcotest.fail "cap1 should be one idle segment"

let trace_utilisation () =
  let t = Trace.create ~caps:2 in
  Trace.set_state t ~time:0 ~cap:0 Trace.Running;
  Trace.set_state t ~time:0 ~cap:1 Trace.Running;
  Trace.set_state t ~time:50 ~cap:1 Trace.Idle;
  Trace.finish t ~time:100;
  check (Alcotest.float 1e-9) "utilisation 75%" 0.75 (Trace.utilisation t);
  check (Alcotest.float 1e-9) "idle fraction 25%" 0.25
    (Trace.state_fraction t Trace.Idle)

let trace_counters () =
  let t = Trace.create ~caps:1 in
  Trace.incr t "sparks";
  Trace.incr ~by:4 t "sparks";
  check Alcotest.int "counter" 5 (Trace.counter t "sparks");
  check Alcotest.int "missing counter" 0 (Trace.counter t "nope")

let trace_redundant_transition () =
  let t = Trace.create ~caps:1 in
  Trace.set_state t ~time:0 ~cap:0 Trace.Running;
  Trace.set_state t ~time:10 ~cap:0 Trace.Running;
  check Alcotest.int "no duplicate entries" 1 (List.length (Trace.entries t))

let render_timeline () =
  let t = Trace.create ~caps:1 in
  Trace.set_state t ~time:0 ~cap:0 Trace.Running;
  Trace.set_state t ~time:50 ~cap:0 Trace.Idle;
  Trace.finish t ~time:100;
  let rows = Render.timeline_rows ~width:10 t in
  check Alcotest.string "half running, half idle" "#####....." rows.(0);
  let csv = Render.to_csv t in
  check Alcotest.bool "csv has header" true
    (String.length csv > 0 && String.sub csv 0 7 = "time_ns")

(* ---------------- Machine ---------------- *)

let machine_conversion () =
  let m = Machine.intel8 in
  check Alcotest.int "1 cycle at 1.86GHz rounds to 1ns" 1 (Machine.ns_of_cycles m 1);
  check Alcotest.int "1.86e9 cycles = 1s" 1_000_000_000
    (Machine.ns_of_cycles m 1_860_000_000);
  let ns = Machine.ns_of_cycles m 1234567 in
  let back = Machine.cycles_of_ns m ns in
  check Alcotest.bool "roundtrip within rounding" true (abs (back - 1234567) < 5)

let machine_penalty () =
  let m = Machine.intel8 in
  check (Alcotest.float 1e-9) "under cache: no penalty" 1.0
    (Machine.mem_penalty m ~working_set:(1024 * 1024));
  let p1 = Machine.mem_penalty m ~working_set:(8 * 1024 * 1024) in
  let p2 = Machine.mem_penalty m ~working_set:(64 * 1024 * 1024) in
  check Alcotest.bool "monotone" true (p1 > 1.0 && p2 > p1);
  check Alcotest.bool "bounded" true (p2 < m.Machine.mem_penalty_max)

let machine_with_cores () =
  let m = Machine.with_cores Machine.amd16 4 in
  check Alcotest.int "cores" 4 m.Machine.cores;
  Alcotest.check_raises "bad cores"
    (Invalid_argument "Machine.make: cores must be positive") (fun () ->
      ignore (Machine.make ~name:"x" ~cores:0 ~clock_ghz:1.0 ()))

let suite =
  ( "sim",
    [
      test_case "engine time order" `Quick engine_order;
      test_case "engine stable ties" `Quick engine_same_time_fifo;
      test_case "engine drained run is idle" `Quick engine_drained;
      test_case "engine ties after an earlier event" `Quick engine_ties_after_earlier;
      test_case "engine empty run" `Quick engine_empty;
      QCheck_alcotest.to_alcotest engine_qcheck_sorted;
      QCheck_alcotest.to_alcotest engine_qcheck_interleaved;
      test_case "engine nested scheduling" `Quick engine_nested_scheduling;
      test_case "engine rejects past" `Quick engine_rejects_past;
      test_case "engine run until / resume" `Quick engine_until;
      test_case "engine until keeps same-time FIFO" `Quick engine_until_keeps_fifo;
      test_case "engine until never moves time back" `Quick engine_until_in_the_past;
      test_case "engine stop" `Quick engine_stop;
      test_case "engine horizon" `Quick engine_horizon;
      QCheck_alcotest.to_alcotest engine_qcheck_again;
      test_case "engine again keeps same-time FIFO" `Quick engine_again_fifo;
      test_case "engine again only once, only in a dispatch" `Quick engine_again_misuse;
      test_case "engine raising handler leaves no event" `Quick
        engine_again_raising_handler;
      test_case "engine until keeps a re-armed event" `Quick engine_again_until;
      test_case "trace segments" `Quick trace_segments;
      test_case "trace utilisation" `Quick trace_utilisation;
      test_case "trace counters" `Quick trace_counters;
      test_case "trace dedup transitions" `Quick trace_redundant_transition;
      test_case "render timeline + csv" `Quick render_timeline;
      test_case "machine cycle conversion" `Quick machine_conversion;
      test_case "machine memory penalty" `Quick machine_penalty;
      test_case "machine with_cores" `Quick machine_with_cores;
    ] )
