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

(* ---------------- metrics snapshot (exec & dist) ---------------- *)

module Metrics = Repro_metrics.Metrics
module MHealth = Repro_metrics.Health

let metrics_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ]
        ~doc:
          "Write the end-of-run metrics snapshot as a repro/metrics/v1 JSON \
           document to $(docv) and print the health verdicts on it."
        ~docv:"FILE.json")

let strict_health_arg =
  Arg.(
    value & flag
    & info [ "strict-health" ]
        ~doc:
          "Exit 3 when any shutdown health detector triggers (steal-failure \
           storm, spark fizzle ratio, ring backpressure stall, GC pause \
           budget).")

(* The metrics tail of exec and dist: run, snapshot, write --metrics,
   then the health verdicts on the snapshot and --strict-health's exit
   code.  The snapshot is the default registry's, or dist's farm-wide
   view: [farm] runs the farm once more (only when a metrics flag asks
   for it) and returns its merged snapshot. *)
let metered ~out ~meta ~mfile ~strict ?farm buf run =
  run ();
  let code =
    if mfile = None && not strict then 0
    else begin
      let snap =
        match farm with Some farm -> farm () | None -> Metrics.snapshot ()
      in
      Option.iter
        (fun path ->
          Repro_util.Json_out.to_file path (Metrics.document ~meta snap);
          Printf.bprintf buf "wrote %s\n" path)
        mfile;
      let verdicts = MHealth.evaluate snap in
      Buffer.add_string buf (Format.asprintf "%a" MHealth.pp verdicts);
      if strict then MHealth.exit_code verdicts else 0
    end
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
  let run (module W : Workload.S) cores size repeat sweep_flag json_file
      trace_file trace_svg mfile strict quick out =
    let hw = Domain.recommended_domain_count () in
    let cores = match cores with Some c -> max 1 c | None -> hw in
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
    metered ~out ~meta ~mfile ~strict buf @@ fun () ->
    let reference = W.reference ~size in
    Printf.bprintf buf "real execution: %s, size %d (%s)\n" W.name size
      W.size_doc;
    sweep_report buf ~hw ~repeat ~ladder:(ladder ~sweep:sweep_flag cores)
      ~reference ~json_file (fun cores ->
        Workload.sample (module W) ~size ~cores);
    match trace_file with
    | None ->
        if trace_svg <> None then
          Buffer.add_string buf "--trace-svg has no effect without --trace\n"
    | Some path ->
        let module Pool = Repro_exec.Pool in
        let module Tracer = Repro_exec.Tracer in
        let tr = Tracer.create ~ncaps:cores () in
        Tracer.enable tr;
        (* the tracer's ring-drop counters retire into the registry, so
           the end-of-run snapshot carries them *)
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
        let log = Tracer.to_eventlog tr in
        let doc = Repro_trace.Chrome.of_eventlog ~ncaps:cores log in
        Repro_util.Json_out.to_file path doc;
        Printf.bprintf buf
          "wrote %s (%d events recorded, Chrome trace-event format)\n" path
          (Tracer.recorded tr);
        (match trace_svg with
        | Some svg_path ->
            let trace = Repro_trace.Eventlog.to_trace ~ncaps:cores log in
            Repro_trace.Render_svg.to_file
              ~title:(Printf.sprintf "%s, %d domain(s)" W.name cores)
              trace svg_path;
            Printf.bprintf buf "wrote %s\n" svg_path
        | None -> ());
        let report =
          Repro_exec.Profile.analyze (Repro_exec.Profile.of_chrome_json doc)
        in
        Buffer.add_string buf (Repro_exec.Profile.to_string report)
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "Run a workload for real on OCaml 5 domains (work-stealing \
          executor) and report measured wall-clock speedups")
    Term.(
      const run $ workload_arg $ cores $ size_arg $ repeat_arg $ sweep_arg
      $ json_arg $ trace_file $ trace_svg $ metrics_file_arg
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
      trace_file transport mfile strict quick out =
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
       coordinator relabels them ([pe=N], its own [pe=coord]) and merges
       them *)
    let farm () =
      let o = Repro_dist.Farm.run ~transport ~procs ~size (module W) in
      if o.Repro_dist.Farm.result <> reference then
        failwith "metrics run: result differs from sequential reference";
      o.Repro_dist.Farm.merged_metrics
    in
    let buf = Buffer.create 1024 in
    metered ~out ~meta ~mfile ~strict ~farm buf @@ fun () ->
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
      $ trace_file $ transport $ metrics_file_arg $ strict_health_arg $ quick
      $ out_file)

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
      all_cmd;
    ]

(* Worker-mode hook: when re-executed by the dist coordinator this
   process must become a PE, not parse a command line.  Must run
   before Cmd.eval. *)
let () = Repro_dist.Worker.maybe_run Sys.argv
let () = exit (Cmd.eval main)
