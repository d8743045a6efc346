(** Chrome trace-event spans: the one record of a traced event in both
    real backends, the one writer of the Trace Event Format JSON that
    Perfetto and [chrome://tracing] load directly, and its reader.
    [lib/exec]'s tracer decodes its per-domain rings into spans, and a
    traced dist PE records its own; [Repro_exec.Profile] and the SVG
    projection ({!to_trace}) read spans, from memory or from a file.

    One named track ([tid]) per worker or PE.  Spans with a duration
    become complete slices ([ph = "X"]) — complete slices need no
    begin/end nesting discipline, so a log whose unmatched opens were
    truncated by a ring buffer still renders.  Point events (spark
    create / run / fizzle, steal attempt/success, future forced) become
    thread-scoped instants ([ph = "i"]).  Timestamps are microseconds
    as the format requires; spans are nanoseconds. *)

module Json = Repro_util.Json_out
module Json_in = Repro_util.Json_in

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

(* A written timestamp back in nanoseconds: exact, since [%.17g]
   round-trips the float and ns are far below 2^53 / 1e3. *)
let ns_of_us us = Float.to_int (Float.round (us *. 1e3))

let of_json json =
  let events =
    match Json_in.member "traceEvents" json with
    | Some evs -> Option.value ~default:[] (Json_in.to_list evs)
    | None -> failwith "no traceEvents key (not a Chrome trace?)"
  in
  List.filter_map
    (fun ev ->
      let get key conv = Option.bind (Json_in.member key ev) conv in
      let span dur_ns =
        match
          (get "name" Json_in.to_string, get "tid" Json_in.to_int,
           get "ts" Json_in.to_float)
        with
        | Some name, Some tid, Some ts ->
            Some
              {
                tid;
                name;
                cat = Option.value ~default:"" (get "cat" Json_in.to_string);
                ts_ns = ns_of_us ts;
                dur_ns;
                args = (match Json_in.member "args" ev with Some (Json.Obj a) -> a | _ -> []);
              }
        | _ -> None
      in
      match get "ph" Json_in.to_string with
      | Some "X" ->
          span (Some (ns_of_us (Option.value ~default:0.0 (get "dur" Json_in.to_float))))
      | Some ("i" | "I") -> span None
      | _ -> None  (* metadata and anything else *))
    events

let to_trace ~ncaps spans =
  let tr = Trace.create ~caps:(max 1 ncaps) in
  (* per track, how many gc, task/eval, parked and worker slices are
     open *)
  let depth = Array.init ncaps (fun _ -> Array.make 4 0) in
  let layer = function
    | "gc:minor" | "gc:major" -> Some 0
    | "task" | "eval" -> Some 1
    | "parked" -> Some 2
    | "worker" -> Some 3
    | _ -> None
  in
  let state d =
    if d.(0) > 0 then Trace.Gc
    else if d.(1) > 0 then Trace.Running
    else if d.(2) > 0 then Trace.Blocked
    else if d.(3) > 0 then Trace.Runnable
    else Trace.Idle
  in
  let on_track s = s.tid >= 0 && s.tid < ncaps in
  let edges =
    List.concat_map
      (fun s ->
        match (s.dur_ns, layer s.name) with
        | Some d, Some l when on_track s ->
            [ (s.ts_ns, 1, s.tid, l); (s.ts_ns + d, -1, s.tid, l) ]
        | _ -> [])
      spans
  in
  (* at one instant begins go first, so no count drops below 0 *)
  List.iter
    (fun (time, delta, cap, l) ->
      let d = depth.(cap) in
      d.(l) <- d.(l) + delta;
      Trace.set_state tr ~time ~cap (state d))
    (List.stable_sort
       (fun (a, da, _, _) (b, db, _, _) -> compare (a, -da) (b, -db))
       edges);
  List.iter
    (fun s ->
      match (s.dur_ns, s.name, List.assoc_opt "victim" s.args) with
      | None, "steal", Some (Json.Int v) when on_track s ->
          Trace.marker tr ~time:s.ts_ns ~cap:s.tid (Printf.sprintf "steal<-%d" v)
      | _ -> ())
    spans;
  Trace.finish tr
    ~time:
      (List.fold_left
         (fun acc s -> max acc (s.ts_ns + Option.value ~default:0 s.dur_ns))
         0 spans);
  tr
