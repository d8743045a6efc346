(** Spark granularity in one picture: parfib with a threshold sweep.

    The classic GpH lesson: too-coarse thresholds starve the machine,
    too-fine thresholds drown it in spark overhead (and overflow the
    spark pool).  This sweep shows the sweet spot, plus the effect of
    activating sparks with dedicated spark threads (Sec. IV-A.4)
    instead of one thread per spark.

    {v dune exec examples/parfib_app.exe [n] v} *)

module Rts = Repro_parrts.Rts
module Config = Repro_parrts.Config
module Versions = Repro_core.Versions
module Report = Repro_parrts.Report

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 30 in
  Printf.printf "parfib %d on 8 simulated cores (work stealing)\n\n" n;
  let table =
    Repro_util.Tablefmt.create
      ~aligns:[ Right; Right; Right; Right; Right; Right; Right ]
      [ "threshold"; "sparks"; "overflow"; "eager BH"; "lazy BH";
        "dup subtrees"; "thread-per-spark (eager)" ]
  in
  let eager = (Versions.with_eager (Versions.gph_steal ~ncaps:8 ())).config in
  let lazy_bh = (Versions.gph_steal ~ncaps:8 ()).config in
  let want = Repro_workloads.Parfib.reference n in
  List.iter
    (fun threshold ->
      let run cfg =
        let v, report =
          Rts.run cfg (fun () -> Repro_workloads.Parfib.gph ~n ~threshold ())
        in
        if v <> want then
          failwith (Printf.sprintf "parfib %d: got %d, expected %d" n v want);
        report
      in
      let re = run eager in
      let rl = run lazy_bh in
      let rtps = run { eager with spark_runner = Config.Thread_per_spark } in
      Repro_util.Tablefmt.add_row table
        [
          string_of_int threshold;
          string_of_int (re.Report.sparks.created + re.Report.sparks.overflowed);
          string_of_int re.Report.sparks.overflowed;
          Printf.sprintf "%.2f ms" (Report.elapsed_ms re);
          Printf.sprintf "%.2f ms" (Report.elapsed_ms rl);
          string_of_int rl.Report.dup_work_entries;
          Printf.sprintf "%.2f ms" (Report.elapsed_ms rtps);
        ])
    [ n - 2; n - 6; n - 10; n - 14; n - 18 ];
  Repro_util.Tablefmt.print table;
  print_newline ();
  Printf.printf
    "Reading guide: the coarsest threshold gives too few sparks to fill 8\n\
     cores; very fine thresholds pay activation overhead per spark and can\n\
     overflow the 4096-entry pool.  The lazy black-holing column shows the\n\
     paper's Sec. IV-A.3 effect at its worst: a thread forcing a sparked\n\
     subtree that is already being evaluated silently re-evaluates the\n\
     whole subtree, so adding sparks makes the program SLOWER; eager\n\
     black-holing turns those duplications into cheap blocking waits.\n"
