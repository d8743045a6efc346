(** Chrome trace-event writer: the one producer of the Trace Event
    Format JSON that Perfetto and [chrome://tracing] load directly,
    and that [Repro_exec.Profile] reads back.  Both real backends write
    through it: the hardware logs recorded by [lib/exec]'s per-domain
    tracer ({!of_eventlog}), and the process farm's per-PE task spans.

    One named track ([tid]) per worker or PE.  Spans with a duration
    become complete slices ([ph = "X"]) — complete slices need no
    begin/end nesting discipline, so a log whose unmatched opens were
    truncated by a ring buffer still renders.  Point events (spark
    create / run / fizzle, steal attempt/success, future forced) become
    thread-scoped instants ([ph = "i"]).  Timestamps are microseconds
    as the format requires; spans are nanoseconds. *)

module Json = Repro_util.Json_out

type span = {
  tid : int;
  name : string;
  cat : string;
  ts_ns : int;
  dur_ns : int option;
  args : (string * Json.t) list;
}

let us_of_ns ns = float_of_int ns /. 1e3

let event s =
  let ph =
    match s.dur_ns with
    | Some d -> [ ("ph", Json.Str "X"); ("dur", Json.Float (us_of_ns d)) ]
    | None -> [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
  in
  Json.Obj
    ([ ("name", Json.Str s.name); ("cat", Json.Str s.cat) ]
    @ ph
    @ [
        ("ts", Json.Float (us_of_ns s.ts_ns));
        ("pid", Json.Int 0);
        ("tid", Json.Int s.tid);
      ]
    @ match s.args with [] -> [] | args -> [ ("args", Json.Obj args) ])

let thread_name (tid, name) =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("ts", Json.Float 0.0);
      ("pid", Json.Int 0);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let document ~tracks spans =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map thread_name tracks @ List.map event spans));
      ("displayTimeUnit", Json.Str "ns");
    ]

let of_eventlog ~ncaps log =
  let events = Eventlog.events log in
  let out = ref [] in
  let push ?(args = []) ?dur_ns ~cat tid name ts_ns =
    out := { tid; name; cat; ts_ns; dur_ns; args } :: !out
  in
  let last_ts = List.fold_left (fun acc (t, _) -> max acc t) 0 events in
  (* per-(cap, kind) stacks of open span start times; spans of the same
     kind on the same track close LIFO (nested helping produces nested
     task slices) *)
  let open_spans : (int * string, int list) Hashtbl.t = Hashtbl.create 32 in
  let begin_span cap kind ts =
    let k = (cap, kind) in
    let st = Option.value ~default:[] (Hashtbl.find_opt open_spans k) in
    Hashtbl.replace open_spans k (ts :: st)
  in
  let end_span ?(cat = "exec") cap kind ts =
    let k = (cap, kind) in
    match Hashtbl.find_opt open_spans k with
    | Some (start :: rest) ->
        Hashtbl.replace open_spans k rest;
        push ~cat ~dur_ns:(max 0 (ts - start)) cap kind start
    | _ -> ()  (* end without begin: dropped by the ring buffer *)
  in
  List.iter
    (fun (ts, ev) ->
      match (ev : Eventlog.event) with
      | Task_begin { cap } -> begin_span cap "task" ts
      | Task_end { cap } -> end_span cap "task" ts
      | Eval_begin { cap } -> begin_span cap "eval" ts
      | Eval_end { cap } -> end_span cap "eval" ts
      | Cap_parked { cap } -> begin_span cap "parked" ts
      | Cap_unparked { cap } -> end_span cap "parked" ts
      | Worker_begin { cap } -> begin_span cap "worker" ts
      | Worker_end { cap } -> end_span cap "worker" ts
      | Gc_begin { cap; major } ->
          begin_span cap (if major then "gc:major" else "gc:minor") ts
      | Gc_end { cap; major } ->
          end_span ~cat:"gc" cap (if major then "gc:major" else "gc:minor") ts
      | Spark_created { cap } -> push ~cat:"spark" cap "spark-create" ts
      | Spark_converted { cap } -> push ~cat:"spark" cap "spark-run" ts
      | Spark_fizzled { cap } -> push ~cat:"spark" cap "spark-fizzle" ts
      | Steal_attempt { thief; victim } ->
          push ~cat:"steal" ~args:[ ("victim", Json.Int victim) ] thief
            "steal-attempt" ts
      | Steal_success { thief; victim } ->
          push ~cat:"steal" ~args:[ ("victim", Json.Int victim) ] thief "steal"
            ts
      | Future_forced { cap } -> push ~cat:"future" cap "force-wait" ts
      | Custom s -> push ~cat:"custom" 0 s ts
      | _ -> ())
    events;
  (* close anything the log ended inside of *)
  Hashtbl.iter
    (fun (cap, kind) starts ->
      List.iter
        (fun start ->
          push ~cat:"exec" ~dur_ns:(max 0 (last_ts - start)) cap kind start)
        starts)
    open_spans;
  document
    ~tracks:
      (List.init (max 1 ncaps) (fun cap -> (cap, Printf.sprintf "worker %d" cap)))
    (List.rev !out)
