(** Structured runtime event log (GHC-eventlog style).

    The paper stresses the importance of adequate parallel-profiling
    tools and uses a custom instrumentation of the threaded RTS fed
    into EdenTV (Sec. I, footnote 1).  Beyond the state timelines of
    {!Trace}, this log records discrete runtime events — thread
    lifecycle, spark lifecycle, GC phases, messages — with timestamps,
    and derives the summary statistics used when analysing runs:
    spark-activation latency, thread lifetimes, GC gap distribution,
    per-PE message counts.  It is the simulator's log; the real
    backends record {!Chrome.span}s instead. *)

type event =
  | Thread_created of { tid : int; cap : int }
  | Thread_finished of { tid : int; cap : int }
  | Thread_blocked of { tid : int; cap : int }
  | Thread_woken of { tid : int; cap : int }
  | Thread_migrated of { tid : int; from_cap : int; to_cap : int }
  | Spark_created of { cap : int }
  | Spark_converted of { cap : int }
  | Spark_stolen of { thief : int }
  | Spark_fizzled of { cap : int }
  | Spark_overflowed of { cap : int }
  | Gc_requested of { cap : int }
  | Gc_started of { minors : int; major : bool }
  | Gc_finished
  | Message_sent of { src : int; dst : int; bytes : int }
  | Message_delivered of { dst : int; bytes : int }

let event_name = function
  | Thread_created _ -> "thread-created"
  | Thread_finished _ -> "thread-finished"
  | Thread_blocked _ -> "thread-blocked"
  | Thread_woken _ -> "thread-woken"
  | Thread_migrated _ -> "thread-migrated"
  | Spark_created _ -> "spark-created"
  | Spark_converted _ -> "spark-converted"
  | Spark_stolen _ -> "spark-stolen"
  | Spark_fizzled _ -> "spark-fizzled"
  | Spark_overflowed _ -> "spark-overflowed"
  | Gc_requested _ -> "gc-requested"
  | Gc_started _ -> "gc-started"
  | Gc_finished -> "gc-finished"
  | Message_sent _ -> "message-sent"
  | Message_delivered _ -> "message-delivered"

(* The log is append-only and is read after the run, so each event is
   stored as a row of [width] ints: its time, its constructor's tag
   (the order of [event] above) and up to three fields, booleans as 0
   or 1.  Rows fill chunks of int arrays.  A row holds no pointer, so a long log costs the GC no cons cells and
   event blocks to promote and mark (a simulated GpH apsp at 200 nodes
   logs about 50,000 events).  Most logs are short: the first chunk
   holds [first_rows] events, and each later one twice as many as the
   last, up to [max_rows]. *)
let width = 5
let first_rows = 32
let max_rows = 4096

type t = {
  mutable full : int array list;  (** filled chunks, newest first *)
  mutable chunk : int array;  (** the chunk being filled *)
  mutable fill : int;  (** ints used in [chunk] *)
  mutable count : int;
  mutable enabled : bool;
}

let create () =
  { full = []; chunk = [||]; fill = 0; count = 0; enabled = true }

let disable t = t.enabled <- false

let push t time tag a b c =
  let len = Array.length t.chunk in
  if t.fill = len then begin
    if len > 0 then t.full <- t.chunk :: t.full;
    let rows = if len = 0 then first_rows else min max_rows (2 * len / width) in
    t.chunk <- Array.make (rows * width) 0;
    t.fill <- 0
  end;
  let r = t.chunk and i = t.fill in
  r.(i) <- time;
  r.(i + 1) <- tag;
  r.(i + 2) <- a;
  r.(i + 3) <- b;
  r.(i + 4) <- c;
  t.fill <- i + width;
  t.count <- t.count + 1

let emit t ~time ev =
  if t.enabled then
    match ev with
    | Thread_created { tid; cap } -> push t time 0 tid cap 0
    | Thread_finished { tid; cap } -> push t time 1 tid cap 0
    | Thread_blocked { tid; cap } -> push t time 2 tid cap 0
    | Thread_woken { tid; cap } -> push t time 3 tid cap 0
    | Thread_migrated { tid; from_cap; to_cap } ->
        push t time 4 tid from_cap to_cap
    | Spark_created { cap } -> push t time 5 cap 0 0
    | Spark_converted { cap } -> push t time 6 cap 0 0
    | Spark_stolen { thief } -> push t time 7 thief 0 0
    | Spark_fizzled { cap } -> push t time 8 cap 0 0
    | Spark_overflowed { cap } -> push t time 9 cap 0 0
    | Gc_requested { cap } -> push t time 10 cap 0 0
    | Gc_started { minors; major } ->
        push t time 11 minors (Bool.to_int major) 0
    | Gc_finished -> push t time 12 0 0 0
    | Message_sent { src; dst; bytes } -> push t time 13 src dst bytes
    | Message_delivered { dst; bytes } -> push t time 14 dst bytes 0

(* [f time event] for every event, in emission order. *)
let iter t f =
  let rows r len =
    let i = ref 0 in
    while !i < len do
      let a = r.(!i + 2) and b = r.(!i + 3) and c = r.(!i + 4) in
      let ev =
        match r.(!i + 1) with
        | 0 -> Thread_created { tid = a; cap = b }
        | 1 -> Thread_finished { tid = a; cap = b }
        | 2 -> Thread_blocked { tid = a; cap = b }
        | 3 -> Thread_woken { tid = a; cap = b }
        | 4 -> Thread_migrated { tid = a; from_cap = b; to_cap = c }
        | 5 -> Spark_created { cap = a }
        | 6 -> Spark_converted { cap = a }
        | 7 -> Spark_stolen { thief = a }
        | 8 -> Spark_fizzled { cap = a }
        | 9 -> Spark_overflowed { cap = a }
        | 10 -> Gc_requested { cap = a }
        | 11 -> Gc_started { minors = a; major = (b = 1) }
        | 12 -> Gc_finished
        | 13 -> Message_sent { src = a; dst = b; bytes = c }
        | _ (* 14 *) -> Message_delivered { dst = a; bytes = b }
      in
      f r.(!i) ev;
      i := !i + width
    done
  in
  List.iter (fun r -> rows r (Array.length r)) (List.rev t.full);
  rows t.chunk t.fill

let length t = t.count

let events t =
  let acc = ref [] in
  iter t (fun time ev -> acc := (time, ev) :: !acc);
  List.rev !acc

let pp_event ppf = function
  | Thread_created { tid; cap } -> Format.fprintf ppf "thread %d created on cap %d" tid cap
  | Thread_finished { tid; cap } -> Format.fprintf ppf "thread %d finished on cap %d" tid cap
  | Thread_blocked { tid; cap } -> Format.fprintf ppf "thread %d blocked on cap %d" tid cap
  | Thread_woken { tid; cap } -> Format.fprintf ppf "thread %d woken (cap %d)" tid cap
  | Thread_migrated { tid; from_cap; to_cap } ->
      Format.fprintf ppf "thread %d migrated %d -> %d" tid from_cap to_cap
  | Spark_created { cap } -> Format.fprintf ppf "spark created on cap %d" cap
  | Spark_converted { cap } -> Format.fprintf ppf "spark converted on cap %d" cap
  | Spark_stolen { thief } -> Format.fprintf ppf "spark stolen by cap %d" thief
  | Spark_fizzled { cap } -> Format.fprintf ppf "spark fizzled on cap %d" cap
  | Spark_overflowed { cap } -> Format.fprintf ppf "spark overflowed on cap %d" cap
  | Gc_requested { cap } -> Format.fprintf ppf "gc requested by cap %d" cap
  | Gc_started { minors; major } ->
      Format.fprintf ppf "gc %d started (%s)" minors (if major then "major" else "minor")
  | Gc_finished -> Format.fprintf ppf "gc finished"
  | Message_sent { src; dst; bytes } ->
      Format.fprintf ppf "message %d -> %d (%d bytes)" src dst bytes
  | Message_delivered { dst; bytes } ->
      Format.fprintf ppf "message delivered at %d (%d bytes)" dst bytes

(** Text dump, one event per line. *)
let dump t =
  let buf = Buffer.create 4096 in
  iter t (fun time ev ->
      Buffer.add_string buf (Format.asprintf "%12d ns  %a\n" time pp_event ev));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Derived statistics                                                  *)
(* ------------------------------------------------------------------ *)

type summary = {
  counts : (string * int) list;  (** events per kind *)
  gc_gaps_ns : Repro_util.Stats.t;  (** mutator time between GCs *)
  gc_pauses_ns : Repro_util.Stats.t;
  thread_lifetimes_ns : Repro_util.Stats.t;
  messages_per_pe : (int * int) array option;  (** (sent, received) *)
}

let summarise ?ncaps t =
  let counts = Hashtbl.create 16 in
  let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  let gc_gaps = Repro_util.Stats.create () in
  let gc_pauses = Repro_util.Stats.create () in
  let lifetimes = Repro_util.Stats.create () in
  let born : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let last_gc_end = ref None and gc_start = ref None in
  let per_pe =
    match ncaps with Some n -> Some (Array.make n (0, 0)) | None -> None
  in
  iter t
    (fun time ev ->
      bump (event_name ev);
      match ev with
      | Thread_created { tid; _ } -> Hashtbl.replace born tid time
      | Thread_finished { tid; _ } -> (
          match Hashtbl.find_opt born tid with
          | Some t0 -> Repro_util.Stats.add lifetimes (float_of_int (time - t0))
          | None -> ())
      | Gc_started _ ->
          gc_start := Some time;
          (match !last_gc_end with
          | Some t0 -> Repro_util.Stats.add gc_gaps (float_of_int (time - t0))
          | None -> ())
      | Gc_finished ->
          last_gc_end := Some time;
          (match !gc_start with
          | Some t0 -> Repro_util.Stats.add gc_pauses (float_of_int (time - t0))
          | None -> ())
      | Message_sent { src; dst; _ } -> (
          (* [src] can be -1 for protocol replies sent from scheduler
             context (no thread attribution) *)
          match per_pe with
          | Some arr when src >= 0 && src < Array.length arr && dst >= 0
                          && dst < Array.length arr ->
              let s, r = arr.(src) in
              arr.(src) <- (s + 1, r)
          | _ -> ())
      | Message_delivered { dst; _ } -> (
          match per_pe with
          | Some arr when dst >= 0 && dst < Array.length arr ->
              let s, r = arr.(dst) in
              arr.(dst) <- (s, r + 1)
          | _ -> ())
      | _ -> ());
  {
    counts =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []);
    gc_gaps_ns = gc_gaps;
    gc_pauses_ns = gc_pauses;
    thread_lifetimes_ns = lifetimes;
    messages_per_pe = per_pe;
  }

let pp_summary ppf (s : summary) =
  Format.fprintf ppf "@[<v>event counts:@,";
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-20s %d@," k v) s.counts;
  Format.fprintf ppf "gc gaps:    %a@," Repro_util.Stats.pp s.gc_gaps_ns;
  Format.fprintf ppf "gc pauses:  %a@," Repro_util.Stats.pp s.gc_pauses_ns;
  Format.fprintf ppf "thread lifetimes: %a@]" Repro_util.Stats.pp
    s.thread_lifetimes_ns
