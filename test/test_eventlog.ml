(** Tests for the structured runtime event log and its derived
    statistics. *)

module Rts = Repro_parrts.Rts
module V = Repro_core.Versions
module Eventlog = Repro_trace.Eventlog
module Stats = Repro_util.Stats

let test_case = Alcotest.test_case
let check = Alcotest.check

let count log name =
  List.length
    (List.filter (fun (_, ev) -> Eventlog.event_name ev = name)
       (Eventlog.events log))

let gph_run_logs_consistently () =
  let _, report =
    Rts.run (V.gph_steal ~ncaps:4 ()).config (fun () ->
        ignore (Repro_workloads.Sumeuler.gph ~n:1500 ()))
  in
  let log = report.Repro_parrts.Report.eventlog in
  (* the log's counters must agree with the report's *)
  check Alcotest.int "spark creations agree" report.sparks.created
    (count log "spark-created");
  check Alcotest.int "spark steals agree" report.sparks.stolen
    (count log "spark-stolen");
  check Alcotest.int "thread creations agree" report.threads_created
    (count log "thread-created");
  check Alcotest.int "gc starts agree" report.gc.minors (count log "gc-started");
  check Alcotest.int "gc starts = gc finishes" (count log "gc-started")
    (count log "gc-finished")

let eden_run_logs_messages () =
  let _, report =
    Rts.run (V.eden ~npes:4 ()).config (fun () ->
        ignore (Repro_workloads.Sumeuler.eden ~n:800 ()))
  in
  let log = report.Repro_parrts.Report.eventlog in
  check Alcotest.int "messages agree" report.messages.sent
    (count log "message-sent");
  check Alcotest.int "every message delivered" (count log "message-sent")
    (count log "message-delivered")

let timestamps_monotone () =
  let _, report =
    Rts.run (V.gph_plain ~ncaps:2 ()).config (fun () ->
        ignore (Repro_workloads.Sumeuler.gph ~n:800 ()))
  in
  let log = report.Repro_parrts.Report.eventlog in
  let last = ref (-1) in
  List.iter
    (fun (time, _) ->
      if time < !last then Alcotest.fail "timestamps must be non-decreasing";
      last := time)
    (Eventlog.events log)

let summary_statistics () =
  let _, report =
    Rts.run (V.gph_plain ~ncaps:4 ()).config (fun () ->
        ignore (Repro_workloads.Sumeuler.gph ~n:3000 ()))
  in
  let log = report.Repro_parrts.Report.eventlog in
  let s = Eventlog.summarise ~ncaps:4 log in
  check Alcotest.bool "counts present" true (List.length s.counts > 3);
  check Alcotest.bool "gc gaps recorded" true (Stats.count s.gc_gaps_ns >= 1);
  check Alcotest.bool "gc pauses positive" true
    (Stats.count s.gc_pauses_ns >= 2 && Stats.mean s.gc_pauses_ns > 0.0);
  check Alcotest.bool "thread lifetimes recorded" true
    (Stats.count s.thread_lifetimes_ns > 10);
  (* dump renders *)
  let dump = Eventlog.dump log in
  check Alcotest.bool "dump non-empty" true (String.length dump > 1000)

let disabled_log_is_empty () =
  let cfg = { (V.gph_plain ~ncaps:2 ()).config with trace_enabled = false } in
  let _, report =
    Rts.run cfg (fun () -> ignore (Repro_workloads.Sumeuler.gph ~n:500 ()))
  in
  check Alcotest.int "no events recorded" 0
    (Eventlog.length report.Repro_parrts.Report.eventlog)

(* The log packs each event into a row of ints in chunks that grow:
   random lists of every constructor, with negative ids (the simulator
   sends from -1), ints of any size and both booleans, long enough to
   fill several chunks (past 8,160 events the chunks stop growing),
   come back as they went in, and a disabled log keeps none of them. *)
let qcheck_round_trip =
  let open QCheck.Gen in
  let id = oneof [ int_range (-1) 16; int ] in
  let event : Eventlog.event t =
    oneof
      [
        map2 (fun tid cap -> Eventlog.Thread_created { tid; cap }) id id;
        map2 (fun tid cap -> Eventlog.Thread_finished { tid; cap }) id id;
        map2 (fun tid cap -> Eventlog.Thread_blocked { tid; cap }) id id;
        map2 (fun tid cap -> Eventlog.Thread_woken { tid; cap }) id id;
        map3
          (fun tid from_cap to_cap ->
            Eventlog.Thread_migrated { tid; from_cap; to_cap })
          id id id;
        map (fun cap -> Eventlog.Spark_created { cap }) id;
        map (fun cap -> Eventlog.Spark_converted { cap }) id;
        map (fun thief -> Eventlog.Spark_stolen { thief }) id;
        map (fun cap -> Eventlog.Spark_fizzled { cap }) id;
        map (fun cap -> Eventlog.Spark_overflowed { cap }) id;
        map (fun cap -> Eventlog.Gc_requested { cap }) id;
        map2 (fun minors major -> Eventlog.Gc_started { minors; major }) id bool;
        return Eventlog.Gc_finished;
        map3
          (fun src dst bytes -> Eventlog.Message_sent { src; dst; bytes })
          id id int;
        map2 (fun dst bytes -> Eventlog.Message_delivered { dst; bytes }) id int;
      ]
  in
  let events =
    let* n =
      frequency
        [ (4, int_range 0 40); (4, int_range 0 1500); (1, int_range 8200 9000) ]
    in
    list_repeat n (pair (oneof [ nat; int ]) event)
  in
  let line (time, ev) =
    Format.asprintf "%12d ns  %a\n" time Eventlog.pp_event ev
  in
  let print evs =
    Printf.sprintf "%d events:\n%s" (List.length evs)
      (String.concat "" (List.map line evs))
  in
  QCheck.Test.make ~name:"round-trip" ~count:200 (QCheck.make ~print events)
    (fun evs ->
      let log = Eventlog.create () and off = Eventlog.create () in
      Eventlog.disable off;
      List.iter
        (fun (time, ev) ->
          Eventlog.emit log ~time ev;
          Eventlog.emit off ~time ev)
        evs;
      Eventlog.events log = evs
      && Eventlog.length log = List.length evs
      && Eventlog.dump log = String.concat "" (List.map line evs)
      && Eventlog.length off = 0
      && Eventlog.events off = []
      && Eventlog.dump off = "")

let suite =
  ( "eventlog",
    [
      test_case "gph counters agree" `Quick gph_run_logs_consistently;
      test_case "eden message events" `Quick eden_run_logs_messages;
      test_case "timestamps monotone" `Quick timestamps_monotone;
      test_case "summary statistics" `Quick summary_statistics;
      test_case "disabled log empty" `Quick disabled_log_is_empty;
      QCheck_alcotest.to_alcotest qcheck_round_trip;
    ] )
