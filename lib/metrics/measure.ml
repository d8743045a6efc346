(** Wall-clock measurement of the two real backends under one record
    (see the interface).  Where [lib/experiments] reports {e virtual}
    nanoseconds from the simulator, this reports {e measured} ones, in
    a shape that sits next to the simulator's Fig. 1 / 3 / 5 series. *)

module Stats = Repro_util.Stats
module Tablefmt = Repro_util.Tablefmt
module Json = Repro_util.Json_out

type backend = Domains | Processes

let backend_name = function Domains -> "domains" | Processes -> "processes"

type gc = {
  minor_collections : int;
  major_collections : int;
  minor_words : float;
  promoted_words : float;
}

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
  }

type sample = {
  workload : string;
  backend : backend;
  transport : string option;
  size : int;
  workers : int;
  ns : int;
  spawn_ns : int;
  result : int;
  gc : gc;
  counts : (string * float) list;
  per_worker : (string * float) list array;
}

type measurement = {
  workload : string;
  backend : backend;
  transport : string option;
  size : int;
  workers : int;
  repeats : int;
  mean_ns : float;
  stddev_ns : float;
  min_ns : float;
  speedup : float;
  result : int;
  spawn_mean_ns : float;
  gc : gc;
  counts : (string * float) list;
  per_worker : (string * float) list array;
}

let measure ~repeats run =
  if repeats < 1 then invalid_arg "Measure.measure: repeats must be >= 1";
  let (warm : sample) = run () in
  (* Per-run durations also land in the default registry, so live
     snapshots ([--metrics], [top]) report latency quantiles without
     waiting for the measurement row. *)
  let duration_hist =
    Metrics.histogram ~help:"Timed workload run duration"
      ~labels:
        [
          ("workload", warm.workload);
          ("backend", backend_name warm.backend);
          ("workers", string_of_int warm.workers);
        ]
      "repro_run_duration_ns"
  in
  let samples =
    List.init repeats (fun _ ->
        let (s : sample) = run () in
        Metrics.observe duration_hist s.ns;
        if s.result <> warm.result then
          failwith
            (Printf.sprintf "%s: nondeterministic result on %d %s: %d <> %d"
               s.workload s.workers (backend_name s.backend) s.result
               warm.result);
        s)
  in
  let stats f =
    let st = Stats.create () in
    List.iter (fun s -> Stats.add st (float_of_int (f s))) samples;
    st
  in
  let times = stats (fun (s : sample) -> s.ns) in
  let last = List.nth samples (repeats - 1) in
  {
    workload = last.workload;
    backend = last.backend;
    transport = last.transport;
    size = last.size;
    workers = last.workers;
    repeats;
    mean_ns = Stats.mean times;
    stddev_ns = Stats.stddev times;
    min_ns = Stats.min_value times;
    speedup = 1.0;
    result = last.result;
    spawn_mean_ns = Stats.mean (stats (fun (s : sample) -> s.spawn_ns));
    gc = last.gc;
    counts = last.counts;
    per_worker = last.per_worker;
  }

let sweep ~repeats ~ladder run =
  match List.map (fun w -> measure ~repeats (fun () -> run w)) ladder with
  | [] -> []
  | base :: _ as ms ->
      List.map (fun m -> { m with speedup = base.mean_ns /. m.mean_ns }) ms

let core_counts_up_to n =
  let n = max 1 n in
  let rec go c acc = if c >= n then List.rev (n :: acc) else go (2 * c) (c :: acc) in
  go 1 []

let git_commit () =
  (* Best-effort: a bench run outside a work tree (or without git)
     just records "unknown". *)
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, l when l <> "" -> l
      | _ -> "unknown"
      | exception _ -> "unknown")

let env_header () =
  [
    ("hardware_cores", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Json.Str Sys.ocaml_version);
    ( "ocamlrunparam",
      Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) );
    ("git_commit", Json.Str (git_commit ()));
  ]

let to_table (ms : measurement list) =
  let count name m =
    Option.map (Printf.sprintf "%.0f") (List.assoc_opt name m.counts)
  in
  let kbytes name m =
    Option.map
      (fun b -> Printf.sprintf "%.1f" (b /. 1024.0))
      (List.assoc_opt name m.counts)
  in
  let cell f m = Some (f m) in
  let workers_header =
    match ms with { backend = Processes; _ } :: _ -> "procs" | _ -> "cores"
  in
  let columns =
    Tablefmt.
      [
        ("workload", Left, cell (fun m -> m.workload));
        ("wire", Left, fun m -> m.transport);
        ("size", Right, cell (fun m -> string_of_int m.size));
        (workers_header, Right, cell (fun m -> string_of_int m.workers));
        ("mean ms", Right, cell (fun m -> Printf.sprintf "%.2f" (m.mean_ns /. 1e6)));
        ("stddev", Right, cell (fun m -> Printf.sprintf "%.2f" (m.stddev_ns /. 1e6)));
        ("speedup", Right, cell (fun m -> Printf.sprintf "%.2fx" m.speedup));
        ( "efficiency",
          Right,
          cell (fun m ->
              Printf.sprintf "%.0f%%"
                (100.0 *. m.speedup /. float_of_int m.workers)) );
        ("sparks", Right, count "sparks_created");
        ("steals", Right, count "steals");
        ("msgs", Right, count "msgs");
        ("kbytes", Right, kbytes "bytes");
        ("0copy kb", Right, kbytes "zero_copy_bytes");
        ("fishes", Right, count "fishes");
        ( "minor GCs",
          Right,
          cell (fun m -> string_of_int m.gc.minor_collections) );
        ( "major GCs",
          Right,
          cell (fun m -> string_of_int m.gc.major_collections) );
      ]
  in
  let shown =
    List.filter
      (fun (_, _, f) -> List.exists (fun m -> f m <> None) ms)
      columns
  in
  let t =
    Tablefmt.create
      ~aligns:(List.map (fun (_, a, _) -> a) shown)
      (List.map (fun (h, _, _) -> h) shown)
  in
  List.iter
    (fun m ->
      Tablefmt.add_row t
        (List.map (fun (_, _, f) -> Option.value ~default:"-" (f m)) shown))
    ms;
  t

let json_of_named row = List.map (fun (k, v) -> (k, Json.Float v)) row

let json_of_measurement (m : measurement) =
  Json.Obj
    [
      ("workload", Json.Str m.workload);
      ("backend", Json.Str (backend_name m.backend));
      ( "transport",
        match m.transport with Some t -> Json.Str t | None -> Json.Null );
      ("size", Json.Int m.size);
      ("workers", Json.Int m.workers);
      ("repeats", Json.Int m.repeats);
      ("mean_ns", Json.Float m.mean_ns);
      ("stddev_ns", Json.Float m.stddev_ns);
      ("min_ns", Json.Float m.min_ns);
      ("speedup", Json.Float m.speedup);
      ("result", Json.Int m.result);
      ("spawn_mean_ns", Json.Float m.spawn_mean_ns);
      ("gc_minor_collections", Json.Int m.gc.minor_collections);
      ("gc_major_collections", Json.Int m.gc.major_collections);
      ("gc_minor_words", Json.Float m.gc.minor_words);
      ("gc_promoted_words", Json.Float m.gc.promoted_words);
      ("counts", Json.Obj (json_of_named m.counts));
      ( "per_worker",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i row ->
                  Json.Obj (("worker", Json.Int i) :: json_of_named row))
                m.per_worker)) );
    ]

let json_document ms =
  Json.Obj
    [
      ("schema", Json.Str "repro/measure/v1");
      ("env", Json.Obj (env_header ()));
      ("measurements", Json.List (List.map json_of_measurement ms));
    ]
