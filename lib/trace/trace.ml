(** EdenTV-style execution tracing.

    The paper (Sec. V, Figs. 2 and 4) analyses per-capability activity
    timelines produced by an instrumented GHC runtime and rendered with
    the EdenTV visualisation tool.  Each capability is, at any virtual
    instant, in one of the states below (the paper's colour legend):

    - {b Running} (green): executing Haskell computation;
    - {b Runnable} (yellow): has runnable work but is waiting for system
      work or synchronisation (e.g. waiting at the GC barrier);
    - {b Blocked} (red): all of the capability's threads are blocked;
    - {b Idle} (blue): no work at all;
    - {b Gc}: inside the collector (we separate this out of Runnable so
      that barrier time and collection time can be distinguished).

    A recorder collects state transitions, counters and point markers;
    renderers turn them into ASCII timelines and CSV. *)

type state = Running | Runnable | Blocked | Idle | Gc

let state_char = function
  | Running -> '#'
  | Runnable -> '-'
  | Blocked -> '!'
  | Idle -> '.'
  | Gc -> 'G'

let state_name = function
  | Running -> "running"
  | Runnable -> "runnable"
  | Blocked -> "blocked"
  | Idle -> "idle"
  | Gc -> "gc"

let all_states = [ Running; Runnable; Blocked; Idle; Gc ]

type entry =
  | Transition of { time : int; cap : int; state : state }
  | Marker of { time : int; cap : int; label : string }

type t = {
  caps : int;
  mutable entries : entry list; (* reversed *)
  counters : (string, int) Hashtbl.t;
  current : state array;
  mutable enabled : bool;
  mutable end_time : int;
}

let create ~caps =
  if caps <= 0 then invalid_arg "Trace.create: caps must be positive";
  {
    caps;
    entries = [];
    counters = Hashtbl.create 32;
    current = Array.make caps Idle;
    enabled = true;
    end_time = 0;
  }

let disable t = t.enabled <- false
let caps t = t.caps

let set_state t ~time ~cap state =
  if cap < 0 || cap >= t.caps then invalid_arg "Trace.set_state: bad cap";
  t.end_time <- Int.max t.end_time time;
  if t.current.(cap) <> state then begin
    t.current.(cap) <- state;
    if t.enabled then
      t.entries <- Transition { time; cap; state } :: t.entries
  end

let marker t ~time ~cap label =
  t.end_time <- Int.max t.end_time time;
  if t.enabled then t.entries <- Marker { time; cap; label } :: t.entries

let state_of t cap = t.current.(cap)

let incr ?(by = 1) t name =
  let v = try Hashtbl.find t.counters name with Not_found -> 0 in
  Hashtbl.replace t.counters name (v + by)

let counter t name = try Hashtbl.find t.counters name with Not_found -> 0

let finish t ~time = t.end_time <- Int.max t.end_time time
let end_time t = t.end_time
let entries t = List.rev t.entries

(** Per-capability segments [(t0, t1, state)], in time order. *)
let segments t =
  let segs = Array.make t.caps [] in
  let last_time = Array.make t.caps 0 in
  let last_state = Array.make t.caps Idle in
  List.iter
    (function
      | Transition { time; cap; state } ->
          if time > last_time.(cap) then
            segs.(cap) <- (last_time.(cap), time, last_state.(cap)) :: segs.(cap);
          last_time.(cap) <- time;
          last_state.(cap) <- state
      | Marker _ -> ())
    (entries t);
  Array.iteri
    (fun cap _ ->
      if t.end_time > last_time.(cap) then
        segs.(cap) <- (last_time.(cap), t.end_time, last_state.(cap)) :: segs.(cap))
    segs;
  Array.map List.rev segs

(** Total virtual time each capability spent in each state. *)
let state_times t =
  let totals = Array.init t.caps (fun _ -> Hashtbl.create 8) in
  Array.iteri
    (fun cap segs ->
      List.iter
        (fun (t0, t1, st) ->
          let h = totals.(cap) in
          let cur = try Hashtbl.find h st with Not_found -> 0 in
          Hashtbl.replace h st (cur + (t1 - t0)))
        segs)
    (segments t);
  totals

(** Fraction of total capability-time spent Running. *)
let utilisation t =
  if t.end_time = 0 then 0.0
  else begin
    let times = state_times t in
    let running =
      Array.fold_left
        (fun acc h -> acc + (try Hashtbl.find h Running with Not_found -> 0))
        0 times
    in
    float_of_int running /. float_of_int (t.end_time * t.caps)
  end

(** Fraction of time spent in [state] across all capabilities. *)
let state_fraction t state =
  if t.end_time = 0 then 0.0
  else begin
    let times = state_times t in
    let total =
      Array.fold_left
        (fun acc h -> acc + (try Hashtbl.find h state with Not_found -> 0))
        0 times
    in
    float_of_int total /. float_of_int (t.end_time * t.caps)
  end
