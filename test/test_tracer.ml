(** Tests for the hardware trace pipeline: tracer ring buffers,
    decoded into [Repro_trace.Chrome] spans, Chrome trace-event export,
    the JSON parser it round-trips through, the SVG projection and the
    profile report. *)

module Tracer = Repro_exec.Tracer
module Pool = Repro_exec.Pool
module Profile = Repro_exec.Profile
module Chrome = Repro_trace.Chrome
module Trace = Repro_trace.Trace
module Json_in = Repro_util.Json_in
module Json_out = Repro_util.Json_out

let test_case = Alcotest.test_case
let check = Alcotest.check

(* ---------------- ring buffer semantics ---------------- *)

let wraparound_keeps_most_recent () =
  (* capacity 16, 100 events: the ring must hold exactly the last 16,
     in order, and account for the 84 overwritten ones *)
  let tr = Tracer.create ~capacity:16 ~gc_events:false ~ncaps:1 () in
  Tracer.enable tr;
  let b = Tracer.buffer tr 0 in
  for i = 0 to 99 do
    Tracer.record b Tracer.Steal_attempt ~arg:i
  done;
  Tracer.disable tr;
  check Alcotest.int "recorded caps at capacity" 16 (Tracer.recorded tr);
  check Alcotest.(array int) "dropped oldest 84" [| 84 |] (Tracer.dropped tr);
  let args =
    List.filter_map
      (fun (s : Chrome.span) ->
        match (s.name, s.args) with
        | "steal-attempt", [ ("victim", Json_out.Int victim) ] -> Some victim
        | _ -> None)
      (Tracer.spans tr)
  in
  check Alcotest.(list int) "last 16 sequence numbers survive, in order"
    (List.init 16 (fun i -> 84 + i))
    args

let disabled_records_nothing () =
  let tr = Tracer.create ~capacity:16 ~gc_events:false ~ncaps:2 () in
  let b = Tracer.buffer tr 1 in
  Tracer.record b Tracer.Spark_create ~arg:0;
  Tracer.enable tr;
  Tracer.disable tr;
  Tracer.record b Tracer.Spark_create ~arg:0;
  (* null_buffer swallows everything even while enabled *)
  Tracer.record Tracer.null_buffer Tracer.Spark_create ~arg:0;
  check Alcotest.int "nothing recorded" 0 (Tracer.recorded tr)

let merged_timestamps_monotone () =
  (* interleave writes into two rings; the merged spans must be sorted *)
  let tr = Tracer.create ~capacity:64 ~gc_events:false ~ncaps:2 () in
  Tracer.enable tr;
  let b0 = Tracer.buffer tr 0 and b1 = Tracer.buffer tr 1 in
  for i = 0 to 49 do
    Tracer.record (if i mod 3 = 0 then b1 else b0) Tracer.Spark_create ~arg:i
  done;
  Tracer.disable tr;
  let times = List.map (fun (s : Chrome.span) -> s.ts_ns) (Tracer.spans tr) in
  check Alcotest.int "all events merged" 50 (List.length times);
  List.iter (fun t -> check Alcotest.bool "time >= 0" true (t >= 0)) times;
  ignore
    (List.fold_left
       (fun prev t ->
         check Alcotest.bool "non-decreasing" true (t >= prev);
         t)
       min_int times)

(* The three pairing rules of [Tracer.spans], on hand-recorded events
   in an 8-slot ring: same-named slices on a track close innermost
   first, an end whose begin the ring overwrote is dropped, and a slice
   still open at the end closes at the last timestamp. *)
let pairing_rules () =
  let tr = Tracer.create ~capacity:8 ~gc_events:false ~ncaps:2 () in
  Tracer.enable tr;
  let b0 = Tracer.buffer tr 0 and b1 = Tracer.buffer tr 1 in
  let record b kind = Tracer.record b kind ~arg:0 in
  List.iter (record b1) [ Tracer.Task_begin; Task_end ];
  (* the first two of worker 0's ten events are overwritten *)
  List.iter (record b0)
    [
      Tracer.Task_begin; Park; Worker_begin; Task_begin; Task_begin; Task_end;
      Task_end; Unpark; Task_end; Spark_create;
    ];
  Tracer.disable tr;
  let spans = Tracer.spans tr in
  let slices = List.filter (fun (s : Chrome.span) -> s.dur_ns <> None) spans in
  let on tid name =
    List.filter (fun (s : Chrome.span) -> s.tid = tid && s.name = name) spans
  in
  let stop (s : Chrome.span) = s.ts_ns + Option.value ~default:0 s.dur_ns in
  let within (outer : Chrome.span) (inner : Chrome.span) =
    outer.ts_ns <= inner.ts_ns && stop inner <= stop outer
  in
  check Alcotest.int "ring wrap noted at time 0 on track 0" 1
    (List.length
       (List.filter
          (fun (s : Chrome.span) -> s.ts_ns = 0 && s.dur_ns = None)
          (on 0 "worker 0 dropped 2 oldest events (ring wrap)")));
  (match on 0 "task" with
  | [ a; b ] -> check Alcotest.bool "nested task slices nest" true (within a b || within b a)
  | l -> Alcotest.failf "%d task slices on worker 0, not 2" (List.length l));
  check Alcotest.int "the parked slice's begin was overwritten" 0
    (List.length (on 0 "parked"));
  check Alcotest.int "worker 1's task" 1 (List.length (on 1 "task"));
  (match (on 0 "worker", on 0 "spark-create") with
  | [ w ], [ last ] ->
      check Alcotest.int "the open worker slice ends at the last timestamp"
        last.ts_ns (stop w)
  | _ -> Alcotest.fail "expected one worker slice and one spark instant");
  List.iter
    (fun (s : Chrome.span) ->
      check Alcotest.bool
        (Printf.sprintf "%s slice: dur >= 0 on a worker's track" s.name)
        true
        (Option.get s.dur_ns >= 0 && (s.tid = 0 || s.tid = 1)))
    slices

(* ---------------- traced pool runs ---------------- *)

let spark_some_work () =
  let module S = Repro_exec.Strategies in
  let xs = List.init 64 (fun i -> i) in
  List.fold_left ( + ) 0 (S.par_map (fun x -> x * x) xs)

let traced_run ?(cores = 2) ?(gc = false) () =
  let tr = Tracer.create ~gc_events:true ~ncaps:cores () in
  Tracer.enable tr;
  let p = Pool.create ~cores ~tracer:tr () in
  let v =
    Pool.run p (fun () ->
        let v = spark_some_work () in
        if gc then begin
          (* land minor+major GC spans inside the traced window *)
          ignore (Sys.opaque_identity (Array.init 100_000 (fun i -> Some i)));
          Gc.minor ();
          Gc.full_major ()
        end;
        v)
  in
  Pool.shutdown p;
  Tracer.disable tr;
  check Alcotest.int "result" (List.fold_left ( + ) 0 (List.init 64 (fun i -> i * i))) v;
  (tr, p)

let ledger_balances_with_tracing_on () =
  let _, p = traced_run () in
  let e = Pool.events p in
  check Alcotest.int "created = run + fizzled" e.Pool.sparks_created
    (e.Pool.sparks_run + e.Pool.sparks_fizzled);
  let per = Pool.worker_events p in
  check Alcotest.int "two worker rows" 2 (Array.length per);
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 per in
  check Alcotest.int "rows sum to total (created)" e.Pool.sparks_created
    (sum (fun (w : Pool.events) -> w.Pool.sparks_created));
  check Alcotest.int "rows sum to total (run)" e.Pool.sparks_run
    (sum (fun (w : Pool.events) -> w.Pool.sparks_run))

let tracer_undersized_rejected () =
  let tr = Tracer.create ~gc_events:false ~ncaps:1 () in
  Alcotest.check_raises "pool wider than tracer"
    (Invalid_argument
       "Pool.create: tracer has 1 buffer(s) but the pool wants 2")
    (fun () -> ignore (Pool.create ~cores:2 ~tracer:tr ()))

(* The runtime keys GC events by ring, a domain slot.  After a pool on
   this domain, a pool whose worker 0 runs on a spawned domain sits on
   slots other than 0 and 1, and this domain, which runs none of its
   workers, collects too: a minor GC stops every domain. *)
let gc_spans_follow_their_worker () =
  ignore (traced_run ~gc:true ());
  let spans =
    Domain.join
      (Domain.spawn (fun () -> Tracer.spans (fst (traced_run ~gc:true ()))))
  in
  let gc =
    List.filter
      (fun (s : Chrome.span) -> String.starts_with ~prefix:"gc:" s.name)
      spans
  in
  List.iter
    (fun (s : Chrome.span) ->
      check Alcotest.bool
        (Printf.sprintf "%s slice on track %d of a 2-worker trace" s.name s.tid)
        true
        (s.tid = 0 || s.tid = 1))
    gc;
  check Alcotest.bool "worker 0's domain collected" true
    (List.exists (fun (s : Chrome.span) -> s.tid = 0) gc)

(* ---------------- Chrome export ---------------- *)

let chrome_shape () =
  let tr, _ = traced_run ~gc:true () in
  let doc = Tracer.trace tr in
  (* round-trip through the serializer and parser: the file a user
     loads in Perfetto is exactly this string *)
  let parsed = Json_in.parse (Json_out.to_string doc) in
  let events =
    match Option.bind (Json_in.member "traceEvents" parsed) Json_in.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents array"
  in
  check Alcotest.bool "has events" true (List.length events > 0);
  let slices_per_tid = Hashtbl.create 4 in
  let saw_gc = ref false in
  List.iter
    (fun ev ->
      let str k = Option.bind (Json_in.member k ev) Json_in.to_string in
      (* every event carries the four required keys *)
      let ph = match str "ph" with Some p -> p | None -> Alcotest.fail "missing ph" in
      (match Option.bind (Json_in.member "ts" ev) Json_in.to_float with
      | Some ts -> check Alcotest.bool "ts >= 0" true (ts >= 0.0)
      | None -> Alcotest.fail "missing ts");
      (match Option.bind (Json_in.member "pid" ev) Json_in.to_int with
      | Some _ -> ()
      | None -> Alcotest.fail "missing pid");
      let tid =
        match Option.bind (Json_in.member "tid" ev) Json_in.to_int with
        | Some t -> t
        | None -> Alcotest.fail "missing tid"
      in
      if ph = "X" then begin
        Hashtbl.replace slices_per_tid tid
          (1 + Option.value ~default:0 (Hashtbl.find_opt slices_per_tid tid));
        (match Option.bind (Json_in.member "dur" ev) Json_in.to_float with
        | Some d -> check Alcotest.bool "dur >= 0" true (d >= 0.0)
        | None -> Alcotest.fail "slice missing dur");
        match str "name" with
        | Some n when String.length n >= 3 && String.sub n 0 3 = "gc:" ->
            saw_gc := true
        | _ -> ()
      end)
    events;
  (* at least one slice on every domain's track *)
  for tid = 0 to 1 do
    check Alcotest.bool
      (Printf.sprintf "worker %d has a slice" tid)
      true
      (Option.value ~default:0 (Hashtbl.find_opt slices_per_tid tid) > 0)
  done;
  check Alcotest.bool "GC spans from Runtime_events on the timeline" true !saw_gc

let eventlog_to_trace_renders () =
  let tr, _ = traced_run () in
  let trace = Chrome.to_trace ~ncaps:2 (Tracer.spans tr) in
  let path = Filename.temp_file "repro_hw_trace" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Repro_trace.Render_svg.to_file ~title:"test" trace path;
      let ic = open_in path in
      let head = really_input_string ic (min 64 (in_channel_length ic)) in
      close_in ic;
      check Alcotest.bool "SVG written" true
        (String.length head > 4 && String.sub head 0 4 = "<svg"))

(* Each state of the projection, on hand-made spans: worker 0 lives
   0..1000 and runs a task 100..500 with a minor GC inside it, then
   parks 600..800; worker 1 has only a slice the projection does not
   read. *)
let projection_states () =
  let slice tid name ts_ns dur =
    { Chrome.tid; name; cat = "exec"; ts_ns; dur_ns = Some dur; args = [] }
  in
  let steal =
    {
      Chrome.tid = 0;
      name = "steal";
      cat = "steal";
      ts_ns = 550;
      dur_ns = None;
      args = [ ("victim", Json_out.Int 1) ];
    }
  in
  let trace =
    Chrome.to_trace ~ncaps:2
      [
        slice 0 "worker" 0 1000;
        slice 0 "task" 100 400;
        slice 0 "gc:minor" 200 100;
        steal;
        slice 0 "parked" 600 200;
        slice 1 "unpack" 0 1000;
      ]
  in
  let state = Alcotest.testable (Fmt.of_to_string Trace.state_name) ( = ) in
  let segs = Trace.segments trace in
  check
    Alcotest.(list (triple int int state))
    "worker 0"
    [
      (0, 100, Trace.Runnable);
      (100, 200, Trace.Running);
      (200, 300, Trace.Gc);
      (300, 500, Trace.Running);
      (500, 600, Trace.Runnable);
      (600, 800, Trace.Blocked);
      (800, 1000, Trace.Runnable);
    ]
    segs.(0);
  check Alcotest.(list (triple int int state)) "worker 1" [ (0, 1000, Trace.Idle) ] segs.(1);
  check
    Alcotest.(list (triple int int string))
    "the steal is a marker"
    [ (550, 0, "steal<-1") ]
    (List.filter_map
       (function
         | Trace.Marker { time; cap; label } -> Some (time, cap, label)
         | Trace.Transition _ -> None)
       (Trace.entries trace))

(* ---------------- profile ---------------- *)

let profile_report_sane () =
  let tr, _ = traced_run ~gc:true () in
  let r = Profile.analyze (Tracer.spans tr) in
  check Alcotest.bool "wall > 0" true (r.Profile.wall_us > 0.0);
  check Alcotest.bool "has worker rows" true (List.length r.Profile.workers > 0);
  List.iter
    (fun (w : Profile.worker_row) ->
      check Alcotest.bool "util in [0,100]" true
        (w.Profile.util_pct >= 0.0 && w.Profile.util_pct <= 100.0);
      check Alcotest.bool "busy <= wall" true (w.Profile.busy_us <= r.Profile.wall_us +. 1.0))
    r.Profile.workers;
  check Alcotest.bool "spark granularity observed" true
    (r.Profile.spark_granularity.Profile.count > 0);
  (* the report renders *)
  check Alcotest.bool "report nonempty" true
    (String.length (Profile.to_string r) > 0)

(* What [exec --trace] prints and what [profile] reads from the file
   it wrote are one report: the file holds the spans exactly. *)
let profile_reads_the_file_as_the_spans () =
  let module W = Repro_exec.Workload.Parfib in
  let size = W.quick_size in
  let reference = W.reference ~size in
  let tr = Tracer.create ~ncaps:2 () in
  Tracer.enable tr;
  let p = Pool.create ~cores:2 ~tracer:tr () in
  let v = Pool.run p (fun () -> W.run ~size ()) in
  Pool.shutdown p;
  Tracer.disable tr;
  check Alcotest.int "checksum" reference v;
  let spans = Tracer.spans tr in
  let read = Chrome.of_json (Json_in.parse (Json_out.to_string (Tracer.trace tr))) in
  check Alcotest.bool "the file reads back as the spans" true (read = spans);
  check Alcotest.bool "one profile" true (Profile.analyze read = Profile.analyze spans)

(* ---------------- Json_in ---------------- *)

let json_in_roundtrip () =
  let doc =
    Json_out.Obj
      [
        ("s", Json_out.Str "a\"b\\c\ntab\t");
        ("i", Json_out.Int (-42));
        ("f", Json_out.Float 1.5);
        ("b", Json_out.Bool true);
        ("nil", Json_out.Null);
        ("xs", Json_out.List [ Json_out.Int 1; Json_out.Int 2 ]);
        ("o", Json_out.Obj [ ("k", Json_out.Str "v") ]);
      ]
  in
  let p = Json_in.parse (Json_out.to_string doc) in
  check Alcotest.(option string) "string escapes" (Some "a\"b\\c\ntab\t")
    (Option.bind (Json_in.member "s" p) Json_in.to_string);
  check Alcotest.(option int) "int" (Some (-42))
    (Option.bind (Json_in.member "i" p) Json_in.to_int);
  check Alcotest.(option (float 1e-9)) "float" (Some 1.5)
    (Option.bind (Json_in.member "f" p) Json_in.to_float);
  check Alcotest.(option int) "list length" (Some 2)
    (Option.map List.length (Option.bind (Json_in.member "xs" p) Json_in.to_list));
  check Alcotest.(option string) "nested" (Some "v")
    (Option.bind
       (Option.bind (Json_in.member "o" p) (Json_in.member "k"))
       Json_in.to_string)

let json_in_rejects_garbage () =
  let fails s =
    match Json_in.parse s with
    | _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
    | exception Json_in.Parse_error _ -> ()
  in
  fails "";
  fails "{";
  fails "[1,]";
  fails "{\"a\":1} trailing";
  fails "\"unterminated";
  fails "nul"

let json_in_unicode () =
  (* \u escapes incl. a surrogate pair -> UTF-8 bytes *)
  let p = Json_in.parse {|"Aé😀"|} in
  check Alcotest.(option string) "utf8" (Some "A\xc3\xa9\xf0\x9f\x98\x80")
    (Json_in.to_string p)

let suite =
  ( "tracer",
    [
      test_case "ring wrap-around keeps most recent events" `Quick
        wraparound_keeps_most_recent;
      test_case "disabled tracer records nothing" `Quick disabled_records_nothing;
      test_case "merged timestamps are monotone" `Quick merged_timestamps_monotone;
      test_case "spans pair begins and ends" `Quick pairing_rules;
      test_case "created = run + fizzled with tracing on" `Quick
        ledger_balances_with_tracing_on;
      test_case "pool rejects undersized tracer" `Quick tracer_undersized_rejected;
      test_case "GC spans go to the worker whose domain collected" `Quick
        gc_spans_follow_their_worker;
      test_case "Chrome JSON shape (ph/ts/pid/tid, slices, GC)" `Quick
        chrome_shape;
      test_case "hardware eventlog renders via Trace/SVG" `Quick
        eventlog_to_trace_renders;
      test_case "projection states of hand-made spans" `Quick projection_states;
      test_case "profile report is sane" `Quick profile_report_sane;
      test_case "profile of the file = profile of the spans" `Quick
        profile_reads_the_file_as_the_spans;
      test_case "json_in round-trips json_out" `Quick json_in_roundtrip;
      test_case "json_in rejects malformed input" `Quick json_in_rejects_garbage;
      test_case "json_in decodes unicode escapes" `Quick json_in_unicode;
    ] )
