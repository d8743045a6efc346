(** Tests for the concurrency correctness toolkit ([lib/check]):
    DPOR exploration of the executor's real protocols must pass, seeded
    mutants must be caught with a concrete interleaving, and the
    vector-clock race detector must flag exactly the protocols that
    deserve it. *)

module Sched = Repro_check.Sched
module Event = Repro_check.Event
module Race = Repro_check.Race
module Protocols = Repro_check.Protocols

(* ------------------------------------------------------------------ *)
(* Scheduler basics on tiny hand-rolled scenarios                      *)
(* ------------------------------------------------------------------ *)

(* Two blind increments (get + set, no RMW): the lost-update schedule
   must be among the explored interleavings and fail the final check. *)
let test_sched_finds_lost_update () =
  let scenario () =
    let x = Sched.Atomic.make 0 in
    Sched.set_name x "x";
    Sched.set_printer x string_of_int;
    let bump () =
      let v = Sched.Atomic.get x in
      Sched.Atomic.set x (v + 1)
    in
    ( [ ("t0", bump); ("t1", bump) ],
      fun () ->
        if Sched.Atomic.get x <> 2 then failwith "lost update" )
  in
  match Sched.check ~name:"lost-update" scenario with
  | Sched.Pass _ -> Alcotest.fail "blind get+set increments passed?!"
  | Sched.Fail v ->
      Alcotest.(check bool)
        "reason mentions the final check" true
        (Astring.String.is_infix ~affix:"lost update" v.reason);
      Alcotest.(check bool) "trace is non-empty" true (v.trace <> [])

(* The same program with fetch_and_add is correct, and DPOR should
   recognise the two RMWs commute observationally only when reordered —
   i.e. it explores both orders and both pass. *)
let test_sched_rmw_increments_pass () =
  let scenario () =
    let x = Sched.Atomic.make 0 in
    ( [ ("t0", fun () -> Sched.Atomic.incr x);
        ("t1", fun () -> Sched.Atomic.incr x) ],
      fun () ->
        if Sched.Atomic.get x <> 2 then failwith "lost update" )
  in
  match Sched.check ~name:"rmw-increments" scenario with
  | Sched.Fail v -> Alcotest.failf "unexpected violation: %s" v.reason
  | Sched.Pass s ->
      Alcotest.(check bool)
        "explored both orders of the dependent RMWs" true
        (s.interleavings >= 2)

(* Independent ops on distinct cells: partial-order reduction should
   collapse the exploration to a single interleaving. *)
let test_sched_independent_ops_one_run () =
  let scenario () =
    let x = Sched.Atomic.make 0 and y = Sched.Atomic.make 0 in
    ( [ ("t0", fun () -> Sched.Atomic.set x 1);
        ("t1", fun () -> Sched.Atomic.set y 1) ],
      fun () ->
        if Sched.Atomic.get x + Sched.Atomic.get y <> 2 then
          failwith "write lost" )
  in
  match Sched.check ~name:"independent" scenario with
  | Sched.Fail v -> Alcotest.failf "unexpected violation: %s" v.reason
  | Sched.Pass s ->
      Alcotest.(check int) "one interleaving suffices" 1 s.interleavings

(* wait_until with no-one to wake is a deadlock, and the report says so. *)
let test_sched_reports_deadlock () =
  let scenario () =
    let flag = Sched.Atomic.make false in
    ( [ ("waiter",
         fun () -> Sched.wait_until (fun () -> Sched.Atomic.get flag)) ],
      fun () -> () )
  in
  match Sched.check ~name:"stuck-waiter" scenario with
  | Sched.Pass _ -> Alcotest.fail "waiting on an unset flag passed?!"
  | Sched.Fail v ->
      Alcotest.(check bool)
        "reported as deadlock" true
        (Astring.String.is_infix ~affix:"deadlock" v.reason)

(* A thread exception is a violation carrying the trace. *)
let test_sched_reports_thread_exception () =
  let scenario () =
    let x = Sched.Atomic.make 0 in
    ( [ ("t0",
         fun () ->
           Sched.Atomic.incr x;
           failwith "kaboom") ],
      fun () -> () )
  in
  match Sched.check ~name:"raiser" scenario with
  | Sched.Pass _ -> Alcotest.fail "raising thread passed?!"
  | Sched.Fail v ->
      Alcotest.(check bool)
        "reason names the thread and exception" true
        (Astring.String.is_infix ~affix:"t0" v.reason
        && Astring.String.is_infix ~affix:"kaboom" v.reason)

(* ------------------------------------------------------------------ *)
(* The executor's protocols and their mutants                          *)
(* ------------------------------------------------------------------ *)

let run_config c =
  let r = Protocols.run c in
  (match r with
  | Sched.Pass s ->
      Alcotest.(check bool)
        (c.Protocols.cname ^ ": explored more than one interleaving")
        true (s.Sched.interleavings >= 2)
  | Sched.Fail _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %s" c.Protocols.cname
       (match c.Protocols.expect with
       | Protocols.Must_pass -> "PASS"
       | Protocols.Must_fail -> "a caught violation"))
    true (Protocols.verdict c r)

let protocol_tests =
  List.map
    (fun c ->
      Alcotest.test_case ("dpor: " ^ c.Protocols.cname) `Quick (fun () ->
          run_config c))
    Protocols.all

(* The lost-wakeup mutant must specifically die as a deadlock with the
   worker named, and the pool handshake (the fixed protocol, mirroring
   Pool.park/signal_work with the wake generation) must be free of it —
   this is the checker-driven regression test for the parking fix. *)
let test_lost_wakeup_is_deadlock () =
  match Protocols.run (Protocols.find "mutant-lost-wakeup") with
  | Sched.Pass _ -> Alcotest.fail "check-then-park mutant passed?!"
  | Sched.Fail v ->
      Alcotest.(check bool)
        "deadlock naming the parked worker" true
        (Astring.String.is_infix ~affix:"deadlock" v.reason
        && Astring.String.is_infix ~affix:"worker" v.reason)

let test_handshake_regression () =
  match Protocols.run (Protocols.find "pool-park-handshake") with
  | Sched.Fail v ->
      Alcotest.failf "park handshake violated: %s\n%s" v.Sched.reason
        (Event.to_string_trace v.Sched.trace)
  | Sched.Pass _ -> ()

(* Mutant traces must be readable: named cells, named threads. *)
let test_mutant_trace_readable () =
  match Protocols.run (Protocols.find "mutant-lazy-blackhole") with
  | Sched.Pass _ -> Alcotest.fail "lazy black-holing passed?!"
  | Sched.Fail v ->
      let s = Event.to_string_trace v.trace in
      List.iter
        (fun affix ->
          Alcotest.(check bool)
            (Printf.sprintf "trace mentions %S" affix)
            true
            (Astring.String.is_infix ~affix s))
        [ "state"; "evals"; "forcer1"; "forcer2"; "Todo" ]

(* ------------------------------------------------------------------ *)
(* Race detector                                                       *)
(* ------------------------------------------------------------------ *)

(* Hand-build tiny traces. *)
let ev step thread loc kind =
  {
    Event.step;
    thread;
    thread_name = Printf.sprintf "t%d" thread;
    loc;
    loc_name = Printf.sprintf "c%d" loc;
    kind;
    repr = "";
  }

let test_race_unordered_writes_flagged () =
  let trace = [ ev 0 (-1) 0 Event.Make; ev 1 0 0 Event.Set; ev 2 1 0 Event.Set ] in
  let rep = Race.analyse trace in
  Alcotest.(check int) "one race" 1 (List.length rep.Race.races);
  let r = List.hd rep.Race.races in
  Alcotest.(check int) "first writer" 0 r.Race.first.Event.thread;
  Alcotest.(check int) "second writer" 1 r.Race.second.Event.thread

let test_race_rmw_never_races () =
  let trace =
    [ ev 0 (-1) 0 Event.Make; ev 1 0 0 Event.Fetch_add; ev 2 1 0 Event.Fetch_add ]
  in
  Alcotest.(check int) "no races" 0
    (List.length (Race.analyse trace).Race.races)

let test_race_ordered_via_acquire () =
  (* t0 writes, t1 reads (acquiring t0's release), then t1 writes:
     ordered, no race. *)
  let trace =
    [
      ev 0 (-1) 0 Event.Make;
      ev 1 0 0 Event.Set;
      ev 2 1 0 Event.Get;
      ev 3 1 0 Event.Set;
    ]
  in
  Alcotest.(check int) "no races" 0
    (List.length (Race.analyse trace).Race.races)

let test_race_distinct_cells_no_race () =
  let trace =
    [ ev 0 0 0 Event.Set; ev 1 1 1 Event.Set; ev 2 0 0 Event.Set ]
  in
  let rep = Race.analyse trace in
  Alcotest.(check int) "no races" 0 (List.length rep.Race.races);
  Alcotest.(check int) "two cells" 2 rep.Race.locations

(* End-to-end: the lazy-black-holing mutant's violating interleaving
   contains unordered writes to [state]; the CAS-based protocols'
   complete traces are race-free. *)
let test_race_flags_lazy_mutant_trace () =
  match Protocols.run (Protocols.find "mutant-lazy-blackhole") with
  | Sched.Pass _ -> Alcotest.fail "lazy black-holing passed?!"
  | Sched.Fail v ->
      let rep = Race.analyse v.Sched.trace in
      Alcotest.(check bool) "write-write race reported" true
        (rep.Race.races <> []);
      let r = List.hd rep.Race.races in
      Alcotest.(check string) "on the state cell" "state" r.Race.loc_name

let test_race_clean_on_cas_protocols () =
  List.iter
    (fun name ->
      let c = Protocols.find name in
      let dirty = ref [] in
      (match Protocols.run
               ~on_trace:(fun trace ->
                 let rep = Race.analyse trace in
                 if rep.Race.races <> [] then dirty := trace :: !dirty)
               c
       with
      | Sched.Fail v -> Alcotest.failf "%s violated: %s" name v.Sched.reason
      | Sched.Pass _ -> ());
      Alcotest.(check int)
        (name ^ ": no interleaving has unordered conflicting writes")
        0 (List.length !dirty))
    [ "future-exactly-once"; "pool-park-handshake" ]

let suite =
  ( "check",
    [
      Alcotest.test_case "sched: lost update found" `Quick
        test_sched_finds_lost_update;
      Alcotest.test_case "sched: rmw increments pass" `Quick
        test_sched_rmw_increments_pass;
      Alcotest.test_case "sched: independent ops collapse to 1 run" `Quick
        test_sched_independent_ops_one_run;
      Alcotest.test_case "sched: deadlock reported" `Quick
        test_sched_reports_deadlock;
      Alcotest.test_case "sched: thread exception reported" `Quick
        test_sched_reports_thread_exception;
    ]
    @ protocol_tests
    @ [
        Alcotest.test_case "mutant: lost wakeup dies as deadlock" `Quick
          test_lost_wakeup_is_deadlock;
        Alcotest.test_case "regression: park handshake is wakeup-safe" `Quick
          test_handshake_regression;
        Alcotest.test_case "mutant: trace is readable" `Quick
          test_mutant_trace_readable;
        Alcotest.test_case "race: unordered writes flagged" `Quick
          test_race_unordered_writes_flagged;
        Alcotest.test_case "race: rmws never race" `Quick
          test_race_rmw_never_races;
        Alcotest.test_case "race: acquire orders later write" `Quick
          test_race_ordered_via_acquire;
        Alcotest.test_case "race: distinct cells independent" `Quick
          test_race_distinct_cells_no_race;
        Alcotest.test_case "race: lazy-blackhole trace flagged" `Quick
          test_race_flags_lazy_mutant_trace;
        Alcotest.test_case "race: CAS protocols race-free" `Quick
          test_race_clean_on_cas_protocols;
      ] )
