(** The benchmark driver.

    {v
    suite.exe --workload W --seed N [--seconds S] [--trace 0|1]
              [--out FILE] [--trace-out FILE]
    suite.exe --smoke --out FILE [--benchmark BENCHMARK.json]
    suite.exe --compare A.json B.json [--benchmark BENCHMARK.json]
    v}

    One run is one workload in this process: a closed loop with one
    client and one job in flight, at most 2 workers.  A job is one
    kernel at a fixed size; a pass is the five kernels in an order
    drawn from the seed.  Set-up (references, pool, one warm-up pass)
    is done three times and its median reported; then passes run until
    [S] seconds have gone by.  Every job's result is checked against
    the sequential reference.  With [--trace 1] the run splits [S]
    between an untraced and a traced phase, then times the layers'
    unit costs, and reports per-layer metrics instead.  Prints
    [workload metric value unit samples] lines, then one JSON result
    line; exits 1 if any check failed. *)

module J = Repro_util.Json_out
module Jin = Repro_util.Json_in
module W = Workloads

(* [E2e] and [Layer] metrics are the ones BENCHMARK.json lists and the
   result line carries; [Info] ones are printed and recorded only. *)
type kind = E2e | Layer | Info

type metric = { name : string; unit_ : string; value : float; samples : int; kind : kind }

type run = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  exact : (string * int) list;
}

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> Float.nan
      in
      find ())

let ms ns = float_of_int ns /. 1e6

let run_workload ~smoke ~seed ~seconds ~trace ~trace_out (w : W.t) =
  let rng = Random.State.make [| seed |] in
  let exact = Hashtbl.create 32 in
  let attempted = ref 0 and failed = ref 0 in
  (* one job: root span [job], children from the backend, [verify] *)
  let job (inst : W.instance) tr kernel =
    let id = !attempted in
    incr attempted;
    Option.iter (fun (tr : W.traced) -> Spans.set_job tr.spans id) tr;
    let gc0 = Gc.quick_stat () in
    let t0 = Timing.now_ns () in
    let ok =
      match W.call tr "verify" (inst.job tr kernel) (fun _ () -> []) with
      | () -> true
      | exception e ->
          incr failed;
          Printf.eprintf "FAIL %s job %d (%s): %s\n%!" w.name id kernel
            (Printexc.to_string e);
          false
    in
    let t1 = Timing.now_ns () in
    Option.iter
      (fun (tr : W.traced) ->
        let gc1 = Gc.quick_stat () in
        let t = tr.tally in
        W.add t "bench.job_ns" (float_of_int (t1 - t0));
        W.add t "gc.minor_words" (gc1.minor_words -. gc0.minor_words);
        W.add t "gc.promoted_words" (gc1.promoted_words -. gc0.promoted_words);
        W.add t "gc.minor_collections"
          (float_of_int (gc1.minor_collections - gc0.minor_collections));
        W.add t "gc.major_collections"
          (float_of_int (gc1.major_collections - gc0.major_collections));
        Spans.add tr.spans ~name:"job" ~start_ns:t0 ~stop_ns:t1
          [ ("kernel", J.Str kernel); ("ok", J.Bool ok) ])
      tr;
    t1 - t0
  in
  (* Whole passes until [seconds] have gone by, at least [min_passes].
     The calibration loop runs at every pass boundary; each job is
     paired with the mean of the two calibrations around its pass.
     Returns [(kernel, ns, cal_ns)] per job and [(ns, cal_ns)] per
     pass. *)
  let phase inst tr ~seconds ~min_passes =
    let t0 = Timing.now_ns () in
    let jobs = ref [] and passes = ref [] and npasses = ref 0 in
    let cal = ref (Calib.time_ns ~cores:w.cores) in
    while !npasses < min_passes || Timing.now_ns () - t0 < int_of_float (seconds *. 1e9) do
      let p0 = Timing.now_ns () in
      let times = List.map (fun k -> (k, job inst tr k)) (shuffle rng W.kernels) in
      let pass_ns = Timing.now_ns () - p0 in
      let cal' = Calib.time_ns ~cores:w.cores in
      let c = float_of_int (!cal + cal') /. 2.0 in
      cal := cal';
      passes := (pass_ns, c) :: !passes;
      jobs := List.rev_append (List.map (fun (k, ns) -> (k, ns, c)) times) !jobs;
      incr npasses
    done;
    (List.rev !jobs, List.rev !passes)
  in
  let setup () =
    Timing.time_ns (fun () ->
        let inst = w.setup ~seed ~smoke ~exact in
        List.iter (fun k -> ignore (job inst None k)) (shuffle rng W.kernels);
        inst)
  in
  let rec setups n =
    let inst, ns = setup () in
    if n = 1 then (inst, [ ns ])
    else (
      inst.teardown ();
      let inst', rest = setups (n - 1) in
      (inst', ns :: rest))
  in
  let inst, setup_ns = setups (if trace || smoke then 1 else 3) in
  let jobs_per_s jobs passes =
    float_of_int (List.length jobs) /. (float_of_int (List.fold_left (fun a (ns, _) -> a + ns) 0 passes) /. 1e9)
  in
  let metrics =
    if not trace then begin
      let jobs, passes = phase inst None ~seconds ~min_passes:1 in
      let m ?(kind = E2e) name unit_ value samples = { name; unit_; value; samples; kind } in
      let stats ?kind name unit_ xs =
        let n = List.length xs in
        [ m ?kind (name "p50") unit_ (Timing.median xs) n; m ?kind (name "p95") unit_ (Timing.quantile xs 0.95) n ]
      in
      let per_kernel ?kind suffix unit_ f =
        List.map
          (fun k ->
            let xs = List.filter_map (fun ((k', _, _) as j) -> if k = k' then Some (f j) else None) jobs in
            m ?kind (k ^ suffix) unit_ (Timing.median xs) (List.length xs))
          W.kernels
      in
      let cal (_, ns, c) = float_of_int ns /. c and abs_ms (_, ns, _) = ms ns in
      [
        m "setup_s" "s" (Timing.median (List.map (fun ns -> float_of_int ns /. 1e9) setup_ns))
          (List.length setup_ns);
        m "pass_cal_p50" "cal"
          (Timing.median (List.map (fun (ns, c) -> float_of_int ns /. c) passes))
          (List.length passes);
      ]
      @ stats (fun q -> "job_cal_" ^ q) "cal" (List.map cal jobs)
      @ per_kernel "_cal_p50" "cal" cal
      @ [ m "peak_rss_mb" "MB" (peak_rss_mb ()) 1 ]
      (* the same in absolute units: what a user of this machine saw,
         but too dependent on the neighbours' load to gate on *)
      @ [
          m ~kind:Info "calib_ms" "ms" (Timing.median (List.map (fun (_, c) -> c /. 1e6) passes))
            (List.length passes);
          m ~kind:Info "jobs_per_s" "jobs/s" (jobs_per_s jobs passes) (List.length jobs);
        ]
      @ stats ~kind:Info (fun q -> "job_ms_" ^ q) "ms" (List.map abs_ms jobs)
      @ per_kernel ~kind:Info "_ms_p50" "ms" abs_ms
    end
    else begin
      let half = seconds /. 2.0 in
      let plain, plain_passes = phase inst None ~seconds:half ~min_passes:1 in
      let tr = { W.spans = Spans.create (); tally = Hashtbl.create 64 } in
      let traced, traced_passes =
        phase inst (Some tr) ~seconds:half ~min_passes:(if smoke then 1 else 5)
      in
      let n = List.length traced in
      let get k = Option.value ~default:0.0 (Hashtbl.find_opt tr.tally k) in
      let per_job k = get k /. float_of_int n in
      let share a b = if b = 0.0 then 0.0 else a /. b in
      let ratio a b = share (get a) (get b) in
      let span name = get ("span." ^ name) in
      let children =
        Hashtbl.fold
          (fun k v acc -> if String.starts_with ~prefix:"span." k then acc +. v else acc)
          tr.tally 0.0
      in
      let per_job_ms ns = ns /. float_of_int n /. 1e6 in
      let farm = span "dist.Farm.run" in
      let layer =
        [
          ("backend.call_ms_per_job", "ms", per_job_ms (children -. span "verify"));
          ("exec.sparks_per_job", "count", per_job "exec.sparks_created");
          ("exec.spark_run_ratio", "ratio", ratio "exec.sparks_run" "exec.sparks_created");
          ("exec.steals_per_job", "count", per_job "exec.steals");
          ("exec.steal_success_ratio", "ratio", ratio "exec.steals" "exec.steal_attempts");
          ("exec.parks_per_job", "count", per_job "exec.parks");
          ( "exec.busy_ratio",
            "ratio",
            share (get "exec.busy_ns") (float_of_int w.cores *. span "exec.Pool.run") );
          ("gc.minor_words_per_job", "words", per_job "gc.minor_words");
          ("gc.minor_collections_per_job", "count", per_job "gc.minor_collections");
          ("gc.major_collections_per_job", "count", per_job "gc.major_collections");
          ("gc.promoted_words_per_job", "words", per_job "gc.promoted_words");
          ("gc.pe_minor_words_per_job", "words", per_job "gc.pe_minor_words");
          ("gc.pe_minor_collections_per_job", "count", per_job "gc.pe_minor_collections");
          ("gc.pe_major_collections_per_job", "count", per_job "gc.pe_major_collections");
          ("gc.pe_promoted_words_per_job", "words", per_job "gc.pe_promoted_words");
          ("mem.pe_heap_mb_max", "MB", get "mem.pe_heap_mb_max");
          ("dist.spawn_share", "ratio", share (get "dist.spawn_ns") farm);
          ("dist.work_share", "ratio", share (get "dist.work_ns") farm);
          ( "dist.residual_share",
            "ratio",
            share (farm -. get "dist.spawn_ns" -. get "dist.work_ns") farm );
          ("dist.pe_busy_ratio", "ratio", ratio "dist.pe_exec_ns" "dist.procs_work_ns");
          ("dist.msgs_per_job", "count", per_job "dist.msgs");
          ("dist.packets_per_job", "count", per_job "dist.packets");
          ("dist.bytes_per_job", "bytes", per_job "dist.bytes");
          ("dist.payload_bytes_per_job", "bytes", per_job "dist.payload_bytes");
          ("dist.pack_share", "ratio", share (get "dist.pack_ns") farm);
          ("dist.unpack_share", "ratio", share (get "dist.unpack_ns") farm);
          ("dist.fishes_per_job", "count", per_job "dist.fishes");
          ("dist.no_work_ratio", "ratio", ratio "dist.no_works" "dist.fishes");
          ("sim.events_per_job", "count", per_job "sim.events");
          ("sim.sparks_per_job", "count", per_job "sim.sparks");
          ("sim.dup_work_entries_per_job", "count", per_job "sim.dup_work_entries");
          ("sim.gc_minors_per_job", "count", per_job "sim.gc_minors");
          ("sim.messages_per_job", "count", per_job "sim.messages");
          ( "trace.overhead_ratio",
            "ratio",
            jobs_per_s traced traced_passes /. jobs_per_s plain plain_passes );
          ("bench.self_ms_per_job", "ms", per_job_ms (get "bench.job_ns" -. children));
        ]
      in
      Option.iter
        (fun path ->
          J.to_file ~indent:0 path
            (Spans.to_json ~process_name:("perfbench " ^ w.name) tr.spans))
        trace_out;
      List.map (fun (name, unit_, value) -> { name; unit_; value; samples = n; kind = Layer }) layer
      @ List.map
          (fun (name, unit_, value) ->
            { name; unit_; value; samples = Unit_costs.rounds; kind = Layer })
          (Unit_costs.measure ~smoke)
    end
  in
  inst.teardown ();
  {
    workload = w.name;
    seed;
    trace;
    attempted = !attempted;
    failed = !failed;
    metrics;
    exact = List.sort compare (List.of_seq (Hashtbl.to_seq exact));
  }

let print_run r =
  List.iter
    (fun m -> Printf.printf "%s %s %.6g %s %d\n" r.workload m.name m.value m.unit_ m.samples)
    r.metrics;
  Printf.printf "%s fail_ratio %.6g ratio %d\n" r.workload
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.attempted;
  List.iter (fun (k, v) -> Printf.printf "%s exact %s %d\n" r.workload k v) r.exact

let result_json r =
  J.Obj
    [
      ("correct", J.Bool (r.failed = 0));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ]))
             (List.filter (fun m -> m.kind <> Info) r.metrics)) );
    ]

let record_json r =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("seed", J.Int r.seed);
      ("trace", J.Int (if r.trace then 1 else 0));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               ( m.name,
                 J.Obj
                   [
                     ("value", J.Float m.value);
                     ("unit", J.Str m.unit_);
                     ("samples", J.Int m.samples);
                   ] ))
             r.metrics) );
      ("exact", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.exact));
    ]

(* [--out FILE] holds a JSON array of run records; each run appends. *)
let append_record path r =
  let old =
    if Sys.file_exists path then
      match Jin.to_list (Jin.of_file path) with
      | Some l -> l
      | None -> failwith (path ^ ": not a JSON array")
    else []
  in
  J.to_file path (J.List (old @ [ record_json r ]))

(* The smoke test: every workload, quick sizes, one pass, untraced and
   traced; each result line must carry exactly the metrics BENCHMARK.json
   names, in its order, no check may fail, and the --out file must
   parse back. *)
let smoke ~benchmark ~out =
  let spec = Jin.of_file benchmark in
  let names key =
    List.map
      (fun m -> Option.get (Option.bind (Jin.member "name" m) Jin.to_string))
      (Option.get (Option.bind (Jin.member key spec) Jin.to_list))
  in
  let e2e = names "end_to_end" and layer = names "per_layer" in
  let workloads =
    List.map
      (fun m -> Option.get (Option.bind (Jin.member "name" m) Jin.to_string))
      (Option.get (Option.bind (Jin.member "workloads" spec) Jin.to_list))
  in
  if Sys.file_exists out then Sys.remove out;
  let problems = ref 0 in
  let problem fmt = Printf.ksprintf (fun s -> incr problems; print_endline ("smoke: " ^ s)) fmt in
  if List.sort compare workloads <> List.sort compare (List.map (fun (w : W.t) -> w.name) W.all)
  then problem "BENCHMARK.json workloads differ from the suite's";
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun trace ->
          let r = run_workload ~smoke:true ~seed:1 ~seconds:0.0 ~trace ~trace_out:None w in
          append_record out r;
          if r.failed <> 0 then problem "%s: %d failed jobs" w.name r.failed;
          let carried = List.filter_map (fun m -> if m.kind <> Info then Some m.name else None) r.metrics in
          if carried <> (if trace then layer else e2e) then
            problem "%s: the %s result does not carry exactly BENCHMARK.json's %s metrics"
              w.name (if trace then "traced" else "untraced") (if trace then "per_layer" else "end_to_end"))
        [ false; true ])
    W.all;
  (match Jin.to_list (Jin.of_file out) with
  | Some l when List.length l = 2 * List.length W.all -> ()
  | _ -> problem "%s does not parse back as %d records" out (2 * List.length W.all));
  if !problems = 0 then print_endline "smoke: ok";
  if !problems = 0 then 0 else 1

let usage () =
  prerr_endline
    "usage: suite.exe --workload sim|domains|procs-sock --seed N [--seconds S] \
     [--trace 0|1] [--out FILE] [--trace-out FILE]\n\
    \       suite.exe --smoke --out FILE [--benchmark FILE]\n\
    \       suite.exe --compare A.json B.json [--benchmark FILE]";
  exit 2

let () =
  (* Farm re-executes this binary as its PEs *)
  Repro_dist.Worker.maybe_run Sys.argv;
  let opt name = function
    | Some v -> v
    | None ->
        Printf.eprintf "missing %s\n" name;
        usage ()
  in
  let workload = ref None and seed = ref None and seconds = ref 20.0 and trace = ref false in
  let out = ref None and trace_out = ref None and benchmark = ref "BENCHMARK.json" in
  let smoke_mode = ref false and compare = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some x when x >= 0.0 -> seconds := x
        | _ ->
            Printf.eprintf "bad --seconds %s\n" v;
            usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | "--trace-out" :: v :: rest -> trace_out := Some v; parse rest
    | "--benchmark" :: v :: rest -> benchmark := v; parse rest
    | "--smoke" :: rest -> smoke_mode := true; parse rest
    | "--compare" :: a :: b :: rest -> compare := Some (a, b); parse rest
    | arg :: _ ->
        Printf.eprintf "unexpected argument %s\n" arg;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!compare, !smoke_mode) with
  | Some (a, b), _ -> exit (Compare.run ~benchmark:!benchmark a b)
  | None, true -> exit (smoke ~benchmark:!benchmark ~out:(opt "--out" !out))
  | None, false ->
      let name = opt "--workload" !workload in
      let w =
        match W.find name with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown workload %s\n" name;
            usage ()
      in
      let r =
        run_workload ~smoke:false ~seed:(opt "--seed" !seed) ~seconds:!seconds ~trace:!trace
          ~trace_out:!trace_out w
      in
      print_run r;
      Option.iter (fun path -> append_record path r) !out;
      print_endline (J.to_string ~indent:0 (result_json r));
      exit (if r.failed = 0 then 0 else 1)
