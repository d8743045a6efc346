(** Command-line driver: run any of the paper's experiments, dump
    traces, or run a single workload under a chosen runtime version. *)

open Cmdliner
module E = Repro_experiments
module Versions = Repro_core.Versions
module Machine = Repro_machine.Machine
module Rts = Repro_parrts.Rts
module Report = Repro_parrts.Report

let out_file =
  let doc = "Also write the output to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc ~docv:"FILE")

let emit out s =
  print_string s;
  match out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc s);
      Printf.eprintf "wrote %s\n%!" path

let quick =
  let doc = "Run at reduced problem sizes (fast smoke run)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* ---------------- fig1 ---------------- *)

let fig1_cmd =
  let run quick out =
    let n = if quick then 3000 else E.Fig1.n_default in
    let r = E.Fig1.run ~n () in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "Fig. 1: parallel runtimes of the sumEuler program for [1..%d]\n" n);
    Buffer.add_string buf (Repro_util.Tablefmt.to_string (E.Fig1.to_table r));
    Buffer.add_string buf
      (Printf.sprintf "row ordering as in the paper: %b\n"
         (E.Fig1.ordering_holds r));
    emit out (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Reproduce Fig. 1 (sumEuler runtimes, Intel 8-core)")
    Term.(const run $ quick $ out_file)

(* ---------------- fig2 ---------------- *)

let fig2_cmd =
  let run quick out width =
    let n = if quick then 3000 else E.Fig1.n_default in
    let r = E.Fig2.run ~n () in
    emit out (E.Fig2.render ~width r)
  in
  let width =
    Arg.(value & opt int 100 & info [ "width" ] ~doc:"Timeline width in columns.")
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Reproduce Fig. 2 (sumEuler traces as ASCII timelines)")
    Term.(const run $ quick $ out_file $ width)

(* ---------------- fig3 ---------------- *)

let fig3_cmd =
  let run quick out =
    let r =
      if quick then E.Fig3.run ~cores:[ 1; 2; 4; 8; 16 ] ~n_euler:6000 ~n_mat:1000 ()
      else E.Fig3.run ()
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf "Fig. 3a: relative speedup, sumEuler [1..%d], AMD 16-core\n"
         r.n_euler);
    Buffer.add_string buf (Format.asprintf "%a" E.Exp.pp_speedup_table r.sumeuler);
    Buffer.add_string buf (E.Exp.render_speedup_plot r.sumeuler);
    Buffer.add_string buf
      (Printf.sprintf "\nFig. 3b: relative speedup, matmul %dx%d, AMD 16-core\n"
         r.n_mat r.n_mat);
    Buffer.add_string buf (Format.asprintf "%a" E.Exp.pp_speedup_table r.matmul);
    Buffer.add_string buf (E.Exp.render_speedup_plot r.matmul);
    Buffer.add_string buf
      (Printf.sprintf "shapes as in the paper: %b\n" (E.Fig3.shapes_hold r));
    List.iter (Printf.bprintf buf "  paper: %s\n") E.Paper.fig3_shapes;
    emit out (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Reproduce Fig. 3 (speedups, AMD 16-core)")
    Term.(const run $ quick $ out_file)

(* ---------------- fig4 ---------------- *)

let fig4_cmd =
  let run quick out width =
    let n = if quick then 400 else 1000 in
    let r = E.Fig4.run ~n () in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (E.Fig4.render ~width r);
    Buffer.add_string buf
      (Printf.sprintf "shapes as in the paper: %b\n" (E.Fig4.shapes_hold r));
    List.iter (Printf.bprintf buf "  paper: %s\n") E.Paper.fig4_shapes;
    emit out (Buffer.contents buf)
  in
  let width =
    Arg.(value & opt int 100 & info [ "width" ] ~doc:"Timeline width in columns.")
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Reproduce Fig. 4 (matmul traces, virtual PEs)")
    Term.(const run $ quick $ out_file $ width)

(* ---------------- fig5 ---------------- *)

let fig5_cmd =
  let run quick out =
    let r =
      if quick then E.Fig5.run ~cores:[ 1; 2; 4; 8; 16 ] ~n:200 ()
      else E.Fig5.run ()
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf
         "Fig. 5: relative speedup, shortest paths (%d nodes), AMD 16-core\n" r.n);
    Buffer.add_string buf (Format.asprintf "%a" E.Exp.pp_speedup_table r.series);
    Buffer.add_string buf (E.Exp.render_speedup_plot r.series);
    Buffer.add_string buf
      (Printf.sprintf "shapes as in the paper: %b\n" (E.Fig5.shapes_hold r));
    List.iter (Printf.bprintf buf "  paper: %s\n") E.Paper.fig5_shapes;
    emit out (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Reproduce Fig. 5 (shortest-paths speedups)")
    Term.(const run $ quick $ out_file)

(* ---------------- run: single workload ---------------- *)

let version_conv =
  let versions ncaps machine =
    [
      ("plain", Versions.gph_plain ~machine ~ncaps ());
      ("bigalloc", Versions.gph_bigalloc ~machine ~ncaps ());
      ("sync", Versions.gph_sync ~machine ~ncaps ());
      ("steal", Versions.gph_steal ~machine ~ncaps ());
      ("steal-eager", Versions.with_eager (Versions.gph_steal ~machine ~ncaps ()));
      ("semi", Versions.gph_semi_distributed ~machine ~ncaps ());
      ("eden", Versions.eden ~machine ~npes:ncaps ());
      ("gum", Versions.gum ~machine ~npes:ncaps ());
    ]
  in
  ( versions,
    [ "plain"; "bigalloc"; "sync"; "steal"; "steal-eager"; "semi"; "eden"; "gum" ] )

let run_cmd =
  let make_versions, version_names = version_conv in
  let workload =
    let doc = "Workload: sumeuler, parfib, matmul, mandelbrot or apsp." in
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("sumeuler", `Sumeuler);
                  ("parfib", `Parfib);
                  ("matmul", `Matmul);
                  ("mandelbrot", `Mandelbrot);
                  ("apsp", `Apsp);
                ]))
          None
      & info [] ~doc ~docv:"WORKLOAD")
  in
  let version =
    let doc =
      Printf.sprintf "Runtime version: %s." (String.concat ", " version_names)
    in
    Arg.(value & opt string "steal" & info [ "variant"; "v" ] ~doc)
  in
  let ncaps = Arg.(value & opt int 8 & info [ "ncaps"; "p" ] ~doc:"Capabilities/PEs.") in
  let size =
    let doc =
      "Problem size (default: sumeuler 15000, parfib 30, matmul 1000, mandelbrot \
       300 for a 300x300 image, apsp 400)."
    in
    Arg.(value & opt (some int) None & info [ "size"; "n" ] ~doc)
  in
  let machine_arg =
    Arg.(
      value
      & opt (enum [ ("intel8", Machine.intel8); ("amd16", Machine.amd16) ]) Machine.intel8
      & info [ "machine" ] ~doc:"Machine model: intel8 or amd16.")
  in
  let trace_flag = Arg.(value & flag & info [ "trace" ] ~doc:"Print the timeline.") in
  let svg_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~doc:"Write the timeline as SVG to $(docv)." ~docv:"FILE")
  in
  let events_flag =
    Arg.(value & flag & info [ "events" ] ~doc:"Print the event-log summary.")
  in
  let run wl version ncaps size machine trace_flag svg_file events_flag out =
    let versions = make_versions ncaps machine in
    let v =
      match List.assoc_opt version versions with
      | Some v -> v
      | None -> failwith ("unknown version " ^ version)
    in
    let is_eden = Repro_parrts.Config.is_distributed v.Versions.config in
    let is_gum = version = "gum" in
    let module W = Repro_exec.Workload in
    (* the simulated program, and the sequential reference its result
       must equal (none for matmul's synthetic payload) *)
    let work, reference =
      match wl with
      | `Sumeuler ->
          let n = Option.value size ~default:15000 in
          ( (fun () ->
              if is_gum then Repro_workloads.Sumeuler.gum ~n ()
              else if is_eden then Repro_workloads.Sumeuler.eden ~n ()
              else Repro_workloads.Sumeuler.gph ~n ()),
            Some (W.Sumeuler.reference ~size:n) )
      | `Parfib ->
          let n = Option.value size ~default:30 in
          ( (fun () ->
              if is_eden then Repro_workloads.Parfib.eden ~n ~depth:4 ()
              else Repro_workloads.Parfib.gph ~n ~threshold:20 ()),
            Some (Repro_workloads.Parfib.reference n) )
      | `Matmul ->
          let n = Option.value size ~default:1000 in
          ( (fun () ->
              if is_eden then begin
                let q = max 1 (int_of_float (ceil (sqrt (float_of_int (ncaps - 1))))) in
                let n = n - (n mod q) in
                ignore (Repro_workloads.Matmul.eden_cannon ~n ~q ())
              end
              else ignore (Repro_workloads.Matmul.gph ~n ());
              0),
            None )
      | `Mandelbrot ->
          let n = Option.value size ~default:300 in
          ( (fun () ->
              if is_eden then Repro_workloads.Mandelbrot.eden_mw ~width:n ~height:n ()
              else Repro_workloads.Mandelbrot.gph ~width:n ~height:n ()),
            Some (Repro_workloads.Mandelbrot.reference ~width:n ~height:n ()) )
      | `Apsp ->
          let n = Option.value size ~default:400 in
          ( (fun () ->
              W.float_bits
                (if is_eden then Repro_workloads.Apsp.eden_ring ~n ()
                 else Repro_workloads.Apsp.gph ~n ())),
            Some (W.Apsp_w.reference ~size:n) )
    in
    let result, report = Rts.run v.Versions.config work in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "%s\n" v.Versions.label);
    Buffer.add_string buf (Format.asprintf "%a\n" Report.pp report);
    (match reference with
    | Some r when result <> r ->
        failwith
          (Printf.sprintf "%s: result %d differs from sequential reference %d"
             v.Versions.label result r)
    | Some r ->
        Printf.bprintf buf "result checksum %d matches the sequential reference\n" r
    | None ->
        Buffer.add_string buf
          "matmul runs the synthetic payload (result 0.0 by construction): \
           no checksum to check\n");
    if trace_flag then
      Buffer.add_string buf (Repro_trace.Render.timeline ~width:100 report.trace);
    if events_flag then
      Buffer.add_string buf
        (Format.asprintf "%a\n" Repro_trace.Eventlog.pp_summary
           (Repro_trace.Eventlog.summarise ~ncaps report.eventlog));
    (match svg_file with
    | Some path ->
        Repro_trace.Render_svg.to_file ~title:v.Versions.label report.trace path;
        Buffer.add_string buf (Printf.sprintf "wrote %s\n" path)
    | None -> ());
    emit out (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one runtime version")
    Term.(
      const run $ workload $ version $ ncaps $ size $ machine_arg $ trace_flag
      $ svg_file $ events_flag $ out_file)

(* ---------------- live metrics plumbing (exec & dist) ---------------- *)

module Metrics = Repro_metrics.Metrics
module MExport = Repro_metrics.Export
module MHealth = Repro_metrics.Health
module MSampler = Repro_metrics.Sampler

let metrics_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ]
        ~doc:
          "Sample the live metrics registry every $(b,--metrics-interval) \
           milliseconds and write the time series as JSON to $(docv), \
           rewritten atomically after every tick so $(b,repro-cli top) can \
           follow the run live."
        ~docv:"FILE.json")

let metrics_interval_arg =
  Arg.(
    value & opt int 200
    & info [ "metrics-interval" ]
        ~doc:"Sampling period for $(b,--metrics), in milliseconds." ~docv:"MS")

let metrics_om_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-om" ]
        ~doc:
          "Write the final metrics snapshot in OpenMetrics text format to \
           $(docv) (validate with $(b,repro-cli metrics-check))."
        ~docv:"FILE.om")

let strict_health_arg =
  Arg.(
    value & flag
    & info [ "strict-health" ]
        ~doc:
          "Exit 3 when any shutdown health detector triggers (steal-failure \
           storm, spark fizzle ratio, ring backpressure stall, GC pause \
           budget, leaked fibers).")

let write_text_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

(* The metrics tail of exec, exec --fibers and dist: [run] runs under
   the --metrics sampler; then the series goes to --metrics, the final
   snapshot to --metrics-om, [after] sees [run]'s value and the series
   (exec pins the snapshots on its trace), the health verdicts on the
   final snapshot are printed, the report is emitted and the exit code
   is --strict-health's.  The final snapshot is the sampler's last, or
   dist's farm-wide view: [farm] returns the PE count and runs the farm
   once more (only when a metrics flag asks for it), and its snapshot
   is appended to the series. *)
let metered ~out ~meta ~mfile ~mint ~mom ~strict ?farm
    ?(after = fun _ _ -> ()) buf run =
  let sampler =
    Option.map
      (fun path ->
        MSampler.start ~interval_ms:(max 10 mint)
          ~on_sample:(fun series -> MExport.write_series ~meta path series)
          ())
      mfile
  in
  let r = run () in
  let series = match sampler with None -> [] | Some s -> MSampler.stop s in
  let wanted = mfile <> None || mom <> None || strict in
  let written, final, note =
    match farm with
    | Some farm when wanted ->
        let procs, merged = farm () in
        ( series @ [ merged ],
          merged,
          Printf.sprintf "%d coordinator snapshot(s) + merged farm view, %d PEs"
            (List.length series) procs )
    | _ ->
        ( series,
          (match List.rev series with s :: _ -> s | [] -> Metrics.snapshot ()),
          Printf.sprintf "%d snapshots" (List.length series) )
  in
  Option.iter
    (fun path ->
      MExport.write_series ~meta path written;
      Printf.bprintf buf "wrote %s (%s)\n" path note)
    mfile;
  Option.iter
    (fun path ->
      write_text_file path (MExport.openmetrics final);
      Printf.bprintf buf "wrote %s\n" path)
    mom;
  after r series;
  let code =
    if wanted then begin
      let verdicts = MHealth.evaluate final in
      Buffer.add_string buf (Format.asprintf "%a" MHealth.pp verdicts);
      if strict then MHealth.exit_code verdicts else 0
    end
    else 0
  in
  emit out (Buffer.contents buf);
  if code <> 0 then exit code

(* ---------------- measurement (exec & dist) ---------------- *)

module Measure = Repro_metrics.Measure

let size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "size"; "n" ] ~doc:"Problem size (workload-specific)." ~docv:"S")

let repeat_arg =
  Arg.(
    value & opt int 3
    & info [ "repeat"; "r" ] ~doc:"Timed runs per worker count." ~docv:"R")

let sweep_arg =
  Arg.(
    value & flag
    & info [ "sweep" ]
        ~doc:
          "Measure at 1, 2, 4, ... up to the worker count ($(b,--cores) or \
           $(b,--procs)) instead of just 1 and that count.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ]
        ~doc:"Write the measurements as a repro/measure/v1 document to $(docv)."
        ~docv:"FILE")

module Workload = Repro_exec.Workload

let workload_arg =
  let choices =
    List.map (fun (module W : Workload.S) -> (W.name, (module W : Workload.S)))
      Workload.all
  in
  let doc =
    Printf.sprintf "Workload: %s." (String.concat ", " Workload.names)
  in
  Arg.(
    value
    & opt (enum choices) (List.hd Workload.all)
    & info [ "workload"; "w" ] ~doc ~docv:"WORKLOAD")

(* --size if given (it must be >= 0), else the quick or default size. *)
let resolve_size ~cmd ~quick ~quick_size ~default_size = function
  | Some s when s < 0 ->
      Printf.eprintf "repro-cli: %s: --size must be >= 0 (got %d)\n" cmd s;
      exit 2
  | Some s -> s
  | None -> if quick then quick_size else default_size

let ladder ~sweep n =
  if sweep then Measure.core_counts_up_to n else if n = 1 then [ 1 ] else [ 1; n ]

(* The one sweep-and-report path of exec and dist: time [run] at every
   rung, then the table, the checksum check against the sequential
   reference, the speedup line and the --json document. *)
let sweep_report buf ~hw ~repeat ~ladder ~reference ~json_file run =
  let ms = Measure.sweep ~repeats:repeat ~ladder run in
  Printf.bprintf buf "%d hardware core(s), %d timed run(s) per point\n" hw
    repeat;
  Buffer.add_string buf (Repro_util.Tablefmt.to_string (Measure.to_table ms));
  List.iter
    (fun (m : Measure.measurement) ->
      if m.result <> reference then
        failwith
          (Printf.sprintf
             "%s on %d %s: result %d differs from sequential reference %d"
             m.workload m.workers
             (Measure.backend_name m.backend)
             m.result reference))
    ms;
  Printf.bprintf buf "result checksum %d matches the sequential reference\n"
    reference;
  (match List.rev ms with
  | (last : Measure.measurement) :: _ :: _ ->
      let noun = match last.backend with Domains -> "core" | Processes -> "proc" in
      Printf.bprintf buf "speedup at %d %ss vs 1 %s: %.2fx\n" last.workers noun
        noun last.speedup
  | _ -> ());
  Option.iter
    (fun path ->
      Repro_util.Json_out.to_file path (Measure.json_document ms);
      Printf.bprintf buf "wrote %s\n" path)
    json_file

(* ---------------- exec: real multicore execution ---------------- *)

(* --fibers: the fiber-runtime stress mode — n fibers over the pool,
   every one parked on a single gate promise, then all released at
   once.  Exercises spawn, await/park, mass resume and the drain path
   at the designed 100k-fibers-on-2-domains operating point, with the
   same metrics/health plumbing as a workload run (the fiber-leak
   detector sees the retired live gauge). *)
let exec_fibers ~hw ~cores ~nfibers ~mfile ~mint ~mom ~strict ~out =
  let module Fiber = Repro_fiber.Fiber in
  let module Promise = Repro_fiber.Promise in
  let module A = Repro_shim.Tatomic.Real in
  if nfibers < 1 then begin
    Printf.eprintf "repro-cli: exec: --fibers must be >= 1 (got %d)\n" nfibers;
    exit 2
  end;
  let meta =
    Repro_util.Json_out.
      [
        ("command", Str "exec");
        ("mode", Str "fibers");
        ("fibers", Int nfibers);
        ("cores", Int cores);
      ]
  in
  let buf = Buffer.create 512 in
  metered ~out ~meta ~mfile ~mint ~mom ~strict buf @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let spawned_in = ref 0. in
  let stats =
    Fiber.run ~cores (fun () ->
        let gate : unit Promise.t = Promise.create () in
        let ran = A.make 0 in
        let hs =
          List.init nfibers (fun i ->
              Fiber.spawn (fun () ->
                  Fiber.yield ();
                  Fiber.await gate;
                  A.incr ran;
                  i))
        in
        spawned_in := Unix.gettimeofday () -. t0;
        Promise.fulfil gate ();
        List.iter (fun h -> ignore (Fiber.join h)) hs;
        let st = Fiber.stats () in
        if A.get ran <> nfibers then
          failwith "fiber stress: not every fiber ran its body";
        st)
  in
  let dt = Unix.gettimeofday () -. t0 in
  Buffer.add_string buf
    (Printf.sprintf
       "fiber stress: %d fibers over %d domain(s) (%d hardware core(s))\n"
       nfibers cores hw);
  Buffer.add_string buf
    (Printf.sprintf "spawned in %.3f s, all joined in %.3f s (%.0f fibers/s)\n"
       !spawned_in dt
       (float_of_int nfibers /. Float.max 1e-9 dt));
  Buffer.add_string buf
    (Printf.sprintf "spawned %d  completed %d  cancelled %d  failed %d\n"
       stats.Fiber.s_spawned stats.Fiber.s_completed stats.Fiber.s_cancelled
       stats.Fiber.s_failed);
  Buffer.add_string buf
    (Printf.sprintf "suspends %d  resumes %d  yields %d  peak live %d\n"
       stats.Fiber.s_suspends stats.Fiber.s_resumes stats.Fiber.s_yields
       stats.Fiber.s_high_water)

let exec_cmd =
  let cores =
    let doc = "Number of domains (default: all hardware cores)." in
    Arg.(value & opt (some int) None & info [ "cores"; "c" ] ~doc ~docv:"N")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ]
          ~doc:
            "Also run once at $(b,--cores) domains with the hardware tracer \
             on and write the merged timeline (scheduler events + GC spans) \
             as Chrome trace-event JSON to $(docv) (load in Perfetto or \
             chrome://tracing); prints the utilization profile."
          ~docv:"FILE.json")
  in
  let trace_svg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-svg" ]
          ~doc:
            "With $(b,--trace): also render the traced run's per-worker \
             timeline as SVG to $(docv)."
          ~docv:"FILE.svg")
  in
  let fibers_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fibers" ]
          ~doc:
            "Fiber-runtime stress mode: spawn $(docv) fibers over \
             $(b,--cores) domains, park them all on one gate promise, \
             release and join them (the workload is not run).  Composes \
             with $(b,--metrics)/$(b,--metrics-om)/$(b,--strict-health)."
          ~docv:"N")
  in
  let run (module W : Workload.S) cores size repeat sweep_flag json_file
      trace_file trace_svg fibers mfile mint mom strict quick out =
    let hw = Domain.recommended_domain_count () in
    let cores = match cores with Some c -> max 1 c | None -> hw in
    match fibers with
    | Some nfibers -> exec_fibers ~hw ~cores ~nfibers ~mfile ~mint ~mom ~strict ~out
    | None ->
    let size =
      resolve_size ~cmd:"exec" ~quick ~quick_size:W.quick_size
        ~default_size:W.default_size size
    in
    let meta =
      Repro_util.Json_out.
        [
          ("command", Str "exec");
          ("workload", Str W.name);
          ("cores", Int cores);
          ("size", Int size);
        ]
    in
    let buf = Buffer.create 1024 in
    let write_trace trace_run series =
      match trace_run with
      | None -> ()
      | Some (path, tr) ->
          let module Tracer = Repro_exec.Tracer in
          let log = Tracer.to_eventlog tr in
          let t0 = Tracer.t0_ns tr in
          let instants =
            List.filter_map
              (fun (s : Metrics.snapshot) ->
                if s.Metrics.taken_ns < t0 then None
                else
                  Some
                    ( s.Metrics.taken_ns - t0,
                      "metrics",
                      [
                        ( "sparks_run",
                          Metrics.total s "repro_pool_sparks_run_total" );
                        ("steals", Metrics.total s "repro_steals_total");
                        ( "gc_minor",
                          Metrics.total s "repro_gc_minor_collections" );
                      ] ))
              series
          in
          let doc = Repro_trace.Chrome.of_eventlog ~instants ~ncaps:cores log in
          Repro_util.Json_out.to_file path doc;
          Buffer.add_string buf
            (Printf.sprintf
               "wrote %s (%d events recorded, %d metric instant(s), Chrome \
                trace-event format)\n"
               path (Tracer.recorded tr) (List.length instants));
          (match trace_svg with
          | Some svg_path ->
              let trace = Repro_trace.Eventlog.to_trace ~ncaps:cores log in
              Repro_trace.Render_svg.to_file
                ~title:(Printf.sprintf "%s, %d domain(s)" W.name cores)
                trace svg_path;
              Buffer.add_string buf (Printf.sprintf "wrote %s\n" svg_path)
          | None -> ());
          let report =
            Repro_exec.Profile.analyze (Repro_exec.Profile.of_chrome_json doc)
          in
          Buffer.add_string buf (Repro_exec.Profile.to_string report)
    in
    (* the traced run happens inside the sampled run, but the Chrome
       file is written after the sampler (if any) stops, so its
       snapshots can be pinned onto the timeline as instants *)
    metered ~out ~meta ~mfile ~mint ~mom ~strict ~after:write_trace buf
    @@ fun () ->
    let reference = W.reference ~size in
    Printf.bprintf buf "real execution: %s, size %d (%s)\n" W.name size
      W.size_doc;
    sweep_report buf ~hw ~repeat ~ladder:(ladder ~sweep:sweep_flag cores)
      ~reference ~json_file (fun cores ->
        Workload.sample (module W) ~size ~cores);
    match trace_file with
    | None ->
        if trace_svg <> None then
          Buffer.add_string buf "--trace-svg has no effect without --trace\n";
        None
    | Some path ->
        let module Pool = Repro_exec.Pool in
        let module Tracer = Repro_exec.Tracer in
        let tr = Tracer.create ~ncaps:cores () in
        Tracer.enable tr;
        (* ring-drop counters flow into live snapshots while the
           traced pool runs *)
        let tok =
          Metrics.add_collector ~name:"tracer" (fun () ->
              Tracer.metrics_samples tr)
        in
        let p = Pool.create ~cores ~tracer:tr () in
        let v = Pool.run p (fun () -> W.run ~size ()) in
        Pool.shutdown p;
        Tracer.disable tr;
        Metrics.remove_collector tok;
        if v <> reference then
          failwith "traced run: result differs from sequential reference";
        Some (path, tr)
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "Run a workload for real on OCaml 5 domains (work-stealing \
          executor) and report measured wall-clock speedups")
    Term.(
      const run $ workload_arg $ cores $ size_arg $ repeat_arg $ sweep_arg
      $ json_arg $ trace_file $ trace_svg $ fibers_arg
      $ metrics_file_arg $ metrics_interval_arg $ metrics_om_arg
      $ strict_health_arg $ quick $ out_file)

(* ---------------- dist: multi-process (Eden/GUM) execution ---------------- *)

let dist_cmd =
  let procs =
    let doc = "Number of worker processes (default: all hardware cores)." in
    Arg.(value & opt (some int) None & info [ "procs"; "p" ] ~doc ~docv:"N")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ]
          ~doc:
            "Also run once at $(b,--procs) processes with per-task tracing \
             and write a Chrome trace-event timeline to $(docv): one track \
             per PE plus the coordinator, with unpack/task/pack and \
             cross-process wire spans (load in Perfetto or \
             chrome://tracing, or read it with $(b,repro-cli profile))."
          ~docv:"FILE.json")
  in
  let transport =
    let doc =
      "Transport between coordinator and PEs, which changes only how \
       bytes move (both run the same star protocol, FISH via the \
       coordinator): $(b,sock) frames messages over a socketpair per PE; \
       $(b,shm) maps a pair of shared-memory rings per PE (zero-copy \
       float payloads)."
    in
    Arg.(
      value
      & opt
          (enum [ ("sock", Repro_dist.Farm.Sock); ("shm", Repro_dist.Farm.Shm) ])
          Repro_dist.Farm.Sock
      & info [ "transport" ] ~doc ~docv:"sock|shm")
  in
  let run (module W : Workload.S) procs size repeat sweep_flag json_file
      trace_file transport mfile mint mom strict quick out =
    let hw = Domain.recommended_domain_count () in
    let procs = match procs with Some p -> max 1 p | None -> hw in
    let size =
      resolve_size ~cmd:"dist" ~quick ~quick_size:W.quick_size
        ~default_size:W.default_size size
    in
    let transport_name = Repro_dist.Farm.transport_name transport in
    let meta =
      Repro_util.Json_out.
        [
          ("command", Str "dist");
          ("workload", Str W.name);
          ("procs", Int procs);
          ("size", Int size);
          ("transport", Str transport_name);
        ]
    in
    let reference = W.reference ~size in
    (* one more farm run collects the merged farm-wide snapshot: each
       PE piggybacks its whole registry on the Stats reply and the
       coordinator relabels ([pe=N]) and merges them *)
    let farm () =
      let o = Repro_dist.Farm.run ~transport ~procs ~size (module W) in
      if o.Repro_dist.Farm.result <> reference then
        failwith "metrics run: result differs from sequential reference";
      (procs, o.Repro_dist.Farm.merged_metrics)
    in
    let buf = Buffer.create 1024 in
    (* the sampler sees the coordinator side live (its link counters,
       wire errors, GC) *)
    metered ~out ~meta ~mfile ~mint ~mom ~strict ~farm buf @@ fun () ->
    Printf.bprintf buf
      "distributed execution (one process per PE, %s transport): %s, size %d \
       (%s)\n"
      transport_name W.name size W.size_doc;
    sweep_report buf ~hw ~repeat ~ladder:(ladder ~sweep:sweep_flag procs)
      ~reference ~json_file (fun procs ->
        Repro_dist.Farm.sample ~transport ~procs ~size (module W));
    (match trace_file with
    | None -> ()
    | Some path ->
        let o =
          Repro_dist.Farm.run ~trace:true ~transport ~procs ~size (module W)
        in
        if o.Repro_dist.Farm.result <> reference then
          failwith "traced run: result differs from sequential reference";
        Repro_util.Json_out.to_file path (Repro_dist.Farm.trace o);
        let nspans = List.length (Repro_dist.Farm.spans o) in
        Buffer.add_string buf
          (Printf.sprintf
             "wrote %s (%d spans across %d PE tracks + coordinator)\n" path
             nspans procs))
  in
  Cmd.v
    (Cmd.info "dist"
       ~doc:
         "Run a workload on the multi-process Eden/GUM-style backend (one \
          worker process per PE, private heaps, FISH/SCHEDULE demand \
          scheduling over framed socketpair messages or shared-memory rings \
          -- $(b,--transport)) and report wall-clock speedups plus \
          message/byte/GC counters")
    Term.(
      const run $ workload_arg $ procs $ size_arg $ repeat_arg $ sweep_arg
      $ json_arg
      $ trace_file $ transport $ metrics_file_arg $ metrics_interval_arg
      $ metrics_om_arg $ strict_health_arg $ quick $ out_file)

(* ---------------- profile: post-hoc trace analysis ---------------- *)

let profile_cmd =
  let module Profile = Repro_exec.Profile in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE.json"
          ~doc:
            "Chrome trace-event JSON written by $(b,exec --trace) or \
             $(b,dist --trace).")
  in
  let run file out =
    let doc =
      try Repro_util.Json_in.of_file file
      with Repro_util.Json_in.Parse_error { pos; msg } ->
        Printf.eprintf "repro-cli: profile: %s: parse error at byte %d: %s\n"
          file pos msg;
        exit 2
    in
    let report =
      try Profile.analyze (Profile.of_chrome_json doc)
      with Failure msg ->
        Printf.eprintf "repro-cli: profile: %s: %s\n" file msg;
        exit 2
    in
    emit out (Printf.sprintf "profile of %s\n%s" file (Profile.to_string report))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Analyze a trace (Chrome trace-event JSON from $(b,exec --trace) \
          or $(b,dist --trace)): per-worker or per-PE utilization, idle-gap \
          histogram, spark granularity and steal latency")
    Term.(const run $ file $ out_file)

(* ---------------- check ---------------- *)

let check_cmd =
  let module P = Repro_check.Protocols in
  let module Sched = Repro_check.Sched in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Print the violating schedule of every caught mutant.")
  in
  let config_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ]
          ~doc:"Run a single configuration by name (see the listing)."
          ~docv:"NAME")
  in
  let run trace_flag config_name out =
    let configs =
      match config_name with
      | None -> P.all
      | Some n -> (
          try [ P.find n ]
          with Invalid_argument msg ->
            Printf.eprintf
              "repro-cli: %s\navailable: %s\n" msg
              (String.concat ", " (List.map (fun c -> c.P.cname) P.all));
            exit 2)
    in
    let buf = Buffer.create 4096 in
    let ok = ref true in
    Buffer.add_string buf
      "DPOR model checking of the executor's lock-free protocols\n\
       (every interleaving of each configuration, modulo commuting \
       independent operations)\n\n";
    List.iter
      (fun c ->
        let r = P.run c in
        let verdict = P.verdict c r in
        if not verdict then ok := false;
        (match r with
        | Sched.Pass s ->
            Buffer.add_string buf
              (Printf.sprintf "%-26s PASS    %6d interleavings %8d ops  depth %2d  %s%s\n"
                 c.P.cname s.Sched.interleavings s.Sched.events
                 s.Sched.max_depth c.P.descr
                 (if verdict then "" else "  ** EXPECTED A VIOLATION **"))
        | Sched.Fail v ->
            Buffer.add_string buf
              (Printf.sprintf "%-26s CAUGHT  after %d interleaving(s): %s%s\n"
                 c.P.cname v.Sched.after_interleavings v.Sched.reason
                 (if verdict then "" else "  ** EXPECTED PASS **"));
            if trace_flag || not verdict then begin
              Buffer.add_string buf "  offending schedule:\n";
              List.iter
                (fun e ->
                  Buffer.add_string buf
                    ("    " ^ Format.asprintf "%a" Repro_check.Event.pp e ^ "\n"))
                v.Sched.trace
            end))
      configs;
    Buffer.add_string buf
      (if !ok then
         "\nall configurations behaved as expected (protocols pass, mutants \
          are caught)\n"
       else "\nUNEXPECTED verdicts present\n");
    emit out (Buffer.contents buf);
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check the executor's lock-free protocols \
          (Chase-Lev deque, future claim CAS, pool parking) and confirm the \
          seeded mutants are caught")
    Term.(const run $ trace_flag $ config_name $ out_file)

(* ---------------- top: live metrics view ---------------- *)

let top_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE.json"
          ~doc:
            "Time-series JSON written by $(b,exec)/$(b,dist) $(b,--metrics) \
             (readable while the run is still going: the writer replaces the \
             file atomically).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render the latest snapshot once and exit (CI-friendly).")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~doc:"Refresh period in seconds." ~docv:"S")
  in
  let sample_value = function
    | Metrics.Counter v | Metrics.Gauge v -> v
    | Metrics.Hist _ -> 0.
  in
  let render (series : Metrics.snapshot list) =
    let buf = Buffer.create 2048 in
    (match List.rev series with
    | [] -> Buffer.add_string buf "no snapshots yet\n"
    | last :: older ->
        let prev = match older with p :: _ -> Some p | [] -> None in
        (* rates come from the last sampling interval when there is
           one, else from the whole run *)
        let dt_ns =
          float_of_int
            (match prev with
            | Some p -> max 1 (last.Metrics.taken_ns - p.Metrics.taken_ns)
            | None -> max 1 last.Metrics.elapsed_ns)
        in
        let get snap name labels =
          match Metrics.find ~labels snap name with
          | Some s -> sample_value s.Metrics.s_value
          | None -> 0.
        in
        let dget name labels =
          let cur = get last name labels in
          match prev with Some p -> cur -. get p name labels | None -> cur
        in
        let tot name = Metrics.total last name in
        let dtot name =
          match prev with
          | Some p -> tot name -. Metrics.total p name
          | None -> tot name
        in
        Buffer.add_string buf
          (Printf.sprintf "%d snapshot(s), %.1f s elapsed\n"
             (List.length series)
             (float_of_int last.Metrics.elapsed_ns /. 1e9));
        (* one row per worker, keyed by the busy-time counter's exact
           label set (carries a pe label too in a merged dist view) *)
        let workers =
          List.filter
            (fun (s : Metrics.sample) ->
              s.Metrics.s_name = "repro_pool_busy_ns_total")
            last.Metrics.samples
        in
        if workers <> [] then begin
          let t =
            Repro_util.Tablefmt.create
              ~aligns:
                Repro_util.Tablefmt.
                  [ Left; Right; Right; Right; Right; Right; Right ]
              [
                "worker"; "busy"; "sparks run"; "steals"; "attempts"; "parks";
                "queue";
              ]
          in
          List.iter
            (fun (w : Metrics.sample) ->
              let labels = w.Metrics.s_labels in
              let name =
                let part k =
                  Option.map (fun v -> k ^ v) (List.assoc_opt k labels)
                in
                String.concat "/"
                  (List.filter_map part [ "pe"; "worker" ]
                  |> function [] -> [ "?" ] | l -> l)
              in
              Repro_util.Tablefmt.add_row t
                [
                  name;
                  Printf.sprintf "%.0f%%"
                    (100. *. dget "repro_pool_busy_ns_total" labels /. dt_ns);
                  Printf.sprintf "%.0f"
                    (get last "repro_pool_sparks_run_total" labels);
                  Printf.sprintf "%.0f" (get last "repro_steals_total" labels);
                  Printf.sprintf "%.0f"
                    (get last "repro_steal_attempts_total" labels);
                  Printf.sprintf "%.0f"
                    (get last "repro_pool_parks_total" labels);
                  Printf.sprintf "%.0f"
                    (get last "repro_pool_queue_depth" labels);
                ])
            workers;
          Buffer.add_string buf (Repro_util.Tablefmt.to_string t)
        end
        else Buffer.add_string buf "(no pool workers in this snapshot)\n";
        Buffer.add_string buf
          (Printf.sprintf
             "steals: %.0f/s  gc: %.0f minor/s %.0f major/s  heap %.1f MW\n"
             (dtot "repro_steals_total" *. 1e9 /. dt_ns)
             (dtot "repro_gc_minor_collections" *. 1e9 /. dt_ns)
             (dtot "repro_gc_major_collections" *. 1e9 /. dt_ns)
             (tot "repro_gc_heap_words" /. 1e6));
        Buffer.add_string buf
          (Printf.sprintf
             "wire: %.0f msgs %.0f KiB  ring: %.0f backpressure waits %.0f \
              doorbells  errors: %.0f  tracer drops: %.0f\n"
             (tot "repro_wire_msgs_sent_total")
             (tot "repro_wire_bytes_sent_total" /. 1024.)
             (tot "repro_ring_backpressure_waits_total")
             (tot "repro_ring_doorbell_rings_total")
             (tot "repro_wire_errors_total")
             (tot "repro_tracer_dropped_events_total"
             +. tot "repro_tracer_lost_runtime_events_total"));
        let fiber_spawned = tot "repro_fiber_spawned_total" in
        if fiber_spawned > 0. then
          Buffer.add_string buf
            (Printf.sprintf
               "fibers: %.0f live (peak %.0f)  %.0f spawned %.0f done  \
                %.0f resumes/s  %.0f yields/s\n"
               (tot "repro_fiber_live")
               (tot "repro_fiber_live_max")
               fiber_spawned
               (tot "repro_fiber_completed_total")
               (dtot "repro_fiber_resumes_total" *. 1e9 /. dt_ns)
               (dtot "repro_fiber_yields_total" *. 1e9 /. dt_ns)));
    Buffer.contents buf
  in
  let run file once interval out =
    let read () =
      match Repro_util.Json_in.of_file file with
      | j -> ( try Some (MExport.series_of_json j) with _ -> None)
      | exception _ -> None
    in
    if once then
      match read () with
      | Some series -> emit out (render series)
      | None ->
          Printf.eprintf "repro-cli: top: cannot read a metrics series from %s\n"
            file;
          exit 2
    else
      (* follow mode: redraw until interrupted *)
      while true do
        (match read () with
        | Some series ->
            print_string "\027[2J\027[H";
            print_string (render series);
            flush stdout
        | None -> ());
        Unix.sleepf (Float.max 0.1 interval)
      done
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running (or finished) $(b,--metrics) series: \
          per-worker utilization, steal rate, queue depth, GC pressure and \
          ring backpressure, refreshed in place ($(b,--once) for a single \
          CI-friendly render)")
    Term.(const run $ file $ once $ interval $ out_file)

(* ---------------- metrics-check ---------------- *)

let metrics_check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE.om"
          ~doc:"OpenMetrics text file written by $(b,--metrics-om).")
  in
  let run file out =
    let ic = open_in_bin file in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match MExport.validate_openmetrics s with
    | Ok () ->
        emit out
          (Printf.sprintf "%s: valid OpenMetrics text (%d lines)\n" file
             (List.length (String.split_on_char '\n' s) - 1))
    | Error msg ->
        Printf.eprintf "repro-cli: metrics-check: %s: %s\n" file msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "metrics-check"
       ~doc:
         "Structurally validate an OpenMetrics text file (families declared \
          before samples, correct suffixes, parseable numbers, final # EOF); \
          exits 1 on the first violation")
    Term.(const run $ file $ out_file)

(* ---------------- all ---------------- *)

(* Each figure command parses its own flags ([argv.(0)] is its name);
   the first failure's code is the exit code, after every figure ran. *)
let all_cmd =
  let run quick =
    let code =
      List.fold_left
        (fun code (name, cmd) ->
          Printf.printf "==== %s ====\n%!" name;
          let flags = if quick then [ "--quick" ] else [] in
          let c = Cmd.eval ~argv:(Array.of_list (name :: flags)) cmd in
          if code = 0 then c else code)
        0
        [
          ("fig1", fig1_cmd);
          ("fig2", fig2_cmd);
          ("fig3", fig3_cmd);
          ("fig4", fig4_cmd);
          ("fig5", fig5_cmd);
        ]
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Reproduce every figure and table")
    Term.(const run $ quick)

let main =
  let doc =
    "Reproduction of 'Comparing and Optimising Parallel Haskell \
     Implementations for Multicore Machines' (ICPP 2009)"
  in
  Cmd.group
    (Cmd.info "repro-cli" ~version:"1.0.0" ~doc)
    [
      fig1_cmd;
      fig2_cmd;
      fig3_cmd;
      fig4_cmd;
      fig5_cmd;
      run_cmd;
      exec_cmd;
      dist_cmd;
      profile_cmd;
      check_cmd;
      top_cmd;
      metrics_check_cmd;
      all_cmd;
    ]

(* Worker-mode hook: when re-executed by the dist coordinator this
   process must become a PE, not parse a command line.  Must run
   before Cmd.eval. *)
let () = Repro_dist.Worker.maybe_run Sys.argv
let () = exit (Cmd.eval main)
