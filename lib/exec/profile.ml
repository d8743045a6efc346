(** Post-hoc profile analysis of hardware traces — the numbers the
    paper reads off its per-CPU activity profiles (Sec. V): per-worker
    utilization, idle-gap distribution (the GC-barrier / famine gaps),
    spark granularity, and steal latency.

    Input is the span list either real backend records
    ({!Repro_trace.Chrome.span}: [Tracer.spans], [Farm.spans], or a
    trace file read back with [Chrome.of_json]).  Busy time is the
    interval {e union} of [task] and [eval] slices, so nested helping
    is not double-counted, less the [wait] slices inside them (a PE's
    task blocked on a relayed row), which count as parked.  Times are
    float microseconds, as the file carries them. *)

module Chrome = Repro_trace.Chrome
module Stats = Repro_util.Stats
module Tablefmt = Repro_util.Tablefmt

(* ---------------- interval arithmetic ---------------- *)

(* Merge possibly-overlapping [(start, stop)] intervals into a sorted
   disjoint union. *)
let union intervals =
  let sorted =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (List.filter (fun (a, b) -> b > a) intervals)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | iv :: rest -> (
        match acc with
        | (s, e) :: acc' when fst iv <= e ->
            go ((s, Float.max e (snd iv)) :: acc') rest
        | _ -> go (iv :: acc) rest)
  in
  go [] sorted

(* [a] less [b], both sorted disjoint unions. *)
let rec diff a b =
  match (a, b) with
  | [], _ -> []
  | a, [] -> a
  | (s, e) :: a', (s', e') :: b' ->
      if e' <= s then diff a b'
      else if e <= s' then (s, e) :: diff a' b
      else
        let left = if s < s' then [ (s, s') ] else [] in
        left @ diff (if e > e' then (e', e) :: a' else a') b

let total intervals = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0.0 intervals

(* Gaps between consecutive intervals of a disjoint union, clipped to
   [(lo, hi)]. *)
let gaps ~lo ~hi intervals =
  let rec go prev acc = function
    | [] -> if hi > prev then (hi -. prev) :: acc else acc
    | (s, e) :: rest ->
        let acc = if s > prev then (s -. prev) :: acc else acc in
        go (Float.max prev e) acc rest
  in
  List.rev (go lo [] intervals)

(* ---------------- report ---------------- *)

type dist = {
  count : int;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  max_us : float;
}

let dist_of = function
  | [] -> { count = 0; p50_us = 0.0; p90_us = 0.0; p99_us = 0.0; max_us = 0.0 }
  | xs ->
      {
        count = List.length xs;
        p50_us = Stats.percentile xs 50.0;
        p90_us = Stats.percentile xs 90.0;
        p99_us = Stats.percentile xs 99.0;
        max_us = List.fold_left Float.max neg_infinity xs;
      }

type worker_row = {
  wtid : int;
  busy_us : float;
  gc_us : float;
  parked_us : float;
  tasks : int;
  steals : int;
  util_pct : float;  (** busy / trace wall span *)
}

(** Idle-gap histogram buckets (gap duration, µs). *)
let gap_buckets =
  [ ("<10us", 10.0); ("10-100us", 100.0); ("100us-1ms", 1e3); ("1-10ms", 1e4) ]

let bucket_label_of gap =
  let rec go = function
    | [] -> ">=10ms"
    | (label, hi) :: rest -> if gap < hi then label else go rest
  in
  go gap_buckets

type report = {
  wall_us : float;  (** min event start to max slice end *)
  workers : worker_row list;  (** sorted by tid *)
  idle_gap_hist : (string * int) list;  (** bucket label -> count *)
  spark_granularity : dist;  (** [eval] slice durations *)
  steal_latency : dist;
      (** per successful steal: time since the thief last finished
          busy work (how long it hunted) *)
  idle_gaps_us : float list;  (** raw gaps, for further analysis *)
}

let is_busy_name n = n = "task" || n = "eval"
let is_gc_name n = String.length n >= 3 && String.sub n 0 3 = "gc:"

let us ns = float_of_int ns /. 1e3

(* A span's start and end, microseconds; an instant ends where it
   starts. *)
let start (s : Chrome.span) = us s.ts_ns
let stop (s : Chrome.span) = start s +. us (Option.value ~default:0 s.dur_ns)

let analyze (spans : Chrome.span list) =
  match spans with
  | [] ->
      {
        wall_us = 0.0;
        workers = [];
        idle_gap_hist = [];
        spark_granularity = dist_of [];
        steal_latency = dist_of [];
        idle_gaps_us = [];
      }
  | _ ->
      let slices, instants =
        List.partition (fun (s : Chrome.span) -> s.dur_ns <> None) spans
      in
      let lo = List.fold_left (fun acc s -> Float.min acc (start s)) infinity spans in
      let hi = List.fold_left (fun acc s -> Float.max acc (stop s)) neg_infinity spans in
      let wall_us = Float.max 0.0 (hi -. lo) in
      let tids =
        List.sort_uniq compare (List.map (fun (s : Chrome.span) -> s.tid) spans)
      in
      let all_gaps = ref [] and spark_durs = ref [] and latencies = ref [] in
      let workers =
        List.map
          (fun tid ->
            let mine = List.filter (fun (s : Chrome.span) -> s.tid = tid) slices in
            let named p =
              union
                (List.filter_map
                   (fun (s : Chrome.span) ->
                     if p s.name then Some (start s, stop s) else None)
                   mine)
            in
            let sum_named p = total (named p) in
            let busy = diff (named is_busy_name) (named (fun n -> n = "wait")) in
            let tasks =
              List.length (List.filter (fun (s : Chrome.span) -> s.name = "task") mine)
            in
            List.iter
              (fun (s : Chrome.span) ->
                if s.name = "eval" then
                  spark_durs := us (Option.get s.dur_ns) :: !spark_durs)
              mine;
            (* idle gaps within this worker's live span *)
            let live =
              match
                List.filter_map
                  (fun (s : Chrome.span) ->
                    if s.name = "worker" then Some (start s, stop s) else None)
                  mine
              with
              | [] -> (lo, hi)
              | ws ->
                  ( List.fold_left (fun a (s, _) -> Float.min a s) infinity ws,
                    List.fold_left (fun a (_, e) -> Float.max a e) neg_infinity ws )
            in
            let g =
              gaps ~lo:(fst live) ~hi:(snd live)
                (List.filter (fun (_, e) -> e >= fst live) busy)
            in
            all_gaps := g @ !all_gaps;
            (* steal latency: steal instants vs last busy end before them *)
            let steals =
              List.filter
                (fun (i : Chrome.span) -> i.tid = tid && i.name = "steal")
                instants
            in
            List.iter
              (fun i ->
                let at = start i in
                let before =
                  List.fold_left
                    (fun acc (_, e) -> if e <= at then Float.max acc e else acc)
                    (fst live) busy
                in
                latencies := Float.max 0.0 (at -. before) :: !latencies)
              steals;
            {
              wtid = tid;
              busy_us = total busy;
              gc_us = sum_named is_gc_name;
              parked_us = sum_named (fun n -> n = "parked" || n = "wait");
              tasks;
              steals = List.length steals;
              util_pct =
                (if wall_us > 0.0 then 100.0 *. total busy /. wall_us else 0.0);
            })
          tids
      in
      let hist =
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun g ->
            let l = bucket_label_of g in
            Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
          !all_gaps;
        List.filter_map
          (fun label ->
            Option.map (fun c -> (label, c)) (Hashtbl.find_opt tbl label))
          (List.map fst gap_buckets @ [ ">=10ms" ])
      in
      {
        wall_us;
        workers;
        idle_gap_hist = hist;
        spark_granularity = dist_of !spark_durs;
        steal_latency = dist_of !latencies;
        idle_gaps_us = !all_gaps;
      }

(* ---------------- rendering ---------------- *)

let worker_table (r : report) =
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
        ]
      [ "worker"; "busy"; "gc"; "parked"; "tasks"; "steals"; "util" ]
  in
  List.iter
    (fun w ->
      Tablefmt.add_row t
        [
          string_of_int w.wtid;
          Printf.sprintf "%.2f ms" (w.busy_us /. 1e3);
          Printf.sprintf "%.2f ms" (w.gc_us /. 1e3);
          Printf.sprintf "%.2f ms" (w.parked_us /. 1e3);
          string_of_int w.tasks;
          string_of_int w.steals;
          Printf.sprintf "%.1f%%" w.util_pct;
        ])
    r.workers;
  t

let pp_dist ppf (d : dist) =
  if d.count = 0 then Format.fprintf ppf "none"
  else
    Format.fprintf ppf
      "%d samples: p50 %.1f us, p90 %.1f us, p99 %.1f us, max %.1f us" d.count
      d.p50_us d.p90_us d.p99_us d.max_us

let pp ppf (r : report) =
  Format.fprintf ppf "wall span: %.2f ms, %d worker track(s)@\n"
    (r.wall_us /. 1e3)
    (List.length r.workers);
  Format.pp_print_string ppf (Tablefmt.to_string (worker_table r));
  Format.fprintf ppf "spark granularity (eval spans):  %a@\n" pp_dist
    r.spark_granularity;
  Format.fprintf ppf "steal latency (hunt time):       %a@\n" pp_dist
    r.steal_latency;
  Format.fprintf ppf "idle gaps:";
  if r.idle_gap_hist = [] then Format.fprintf ppf " none@\n"
  else begin
    Format.fprintf ppf "@\n";
    List.iter
      (fun (label, n) -> Format.fprintf ppf "  %-10s %d@\n" label n)
      r.idle_gap_hist
  end

let to_string r = Format.asprintf "%a" pp r
