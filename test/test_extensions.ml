(** Tests for the extension features (DESIGN.md Sec. 5): spark-pool
    overflow, thread migration, spark-runner ablation, and the extra
    workloads (parfib, Mandelbrot). *)

module Rts = Repro_parrts.Rts
module Api = Repro_parrts.Rts.Api
module Config = Repro_parrts.Config
module Report = Repro_parrts.Report
module Cost = Repro_util.Cost
module V = Repro_core.Versions
module W = Repro_workloads
module Machine = Repro_machine.Machine

let test_case = Alcotest.test_case
let check = Alcotest.check

let cfg ?(ncaps = 4) () =
  let machine = Machine.make ~name:"t" ~cores:ncaps ~clock_ghz:1.0 () in
  Config.default ~machine ~ncaps ()

(* ---------------- spark pool overflow ---------------- *)

let spark_pool_overflows () =
  let c = { (cfg ~ncaps:1 ()) with spark_pool_capacity = 8 } in
  let _, report = Rts.run c (fun () ->
      for _ = 1 to 100 do
        Api.spark ~still_needed:(fun () -> true) (fun () -> ())
      done)
  in
  check Alcotest.int "8 kept" 8 report.Report.sparks.created;
  check Alcotest.int "92 overflowed" 92 report.Report.sparks.overflowed

let spark_pool_default_capacity () =
  let _, report = Rts.run (cfg ~ncaps:1 ()) (fun () ->
      for _ = 1 to 5000 do
        Api.spark ~still_needed:(fun () -> true) (fun () -> ())
      done)
  in
  (* GHC default: 4096-entry ring *)
  check Alcotest.int "4096 kept" 4096 report.Report.sparks.created;
  check Alcotest.int "rest overflowed" 904 report.Report.sparks.overflowed

(* ---------------- thread migration ---------------- *)

let thread_work ~nthreads () =
  let remaining = ref nthreads and waiter = ref None in
  for _ = 1 to nthreads do
    ignore
      (Api.spawn (fun () ->
           Api.charge (Cost.make 2_000_000 ~alloc:16_384);
           decr remaining;
           if !remaining = 0 then Option.iter (fun k -> k ()) !waiter))
  done;
  if !remaining > 0 then Api.block (fun wake -> waiter := Some wake)

(* Sixteen threads spawned on cap 0 of 4: on a shared heap the
   scheduler pushes the surplus to idle capabilities (the paper:
   "surplus threads are still pushed actively"); PE heaps keep every
   thread where it was made. *)
let threads_migrate_on_shared_heap_only () =
  let migrated (r : Report.t) =
    let counts = (Repro_trace.Eventlog.summarise r.eventlog).counts in
    Option.value (List.assoc_opt "thread-migrated" counts) ~default:0
  in
  let shared = cfg ~ncaps:4 () in
  let distributed =
    { shared with heap_mode = Config.Distributed Repro_mp.Transport.shm }
  in
  let _, r_shared = Rts.run shared (thread_work ~nthreads:16) in
  let _, r_dist = Rts.run distributed (thread_work ~nthreads:16) in
  check Alcotest.bool "surplus threads migrate" true (migrated r_shared > 0);
  check Alcotest.int "PE heaps confine threads" 0 (migrated r_dist);
  check Alcotest.bool "migration shortens the run" true
    (r_shared.Report.elapsed_ns < r_dist.Report.elapsed_ns)

(* ---------------- spark runner ablation ---------------- *)

let spark_threads_create_fewer_threads () =
  let work () =
    let remaining = ref 64 and waiter = ref None in
    for _ = 1 to 64 do
      Api.spark ~still_needed:(fun () -> true) (fun () ->
          Api.charge (Cost.make 500_000 ~alloc:4096);
          decr remaining;
          if !remaining = 0 then Option.iter (fun k -> k ()) !waiter)
    done;
    if !remaining > 0 then Api.block (fun wake -> waiter := Some wake)
  in
  let steal = { (cfg ~ncaps:4 ()) with load_balance = Config.Work_stealing } in
  let tps = { steal with spark_runner = Config.Thread_per_spark } in
  let st = { steal with spark_runner = Config.Spark_threads } in
  let _, r_tps = Rts.run tps work in
  let _, r_st = Rts.run st work in
  check Alcotest.bool "thread-per-spark creates one thread per spark" true
    (r_tps.Report.threads_created >= 64);
  check Alcotest.bool "spark threads amortise creation" true
    (r_st.Report.threads_created < r_tps.Report.threads_created / 4)

(* ---------------- parfib ---------------- *)

let parfib_known_values () =
  List.iter
    (fun (n, v) -> check Alcotest.int (Printf.sprintf "nfib %d" n) v (W.Parfib.reference n))
    [ (0, 1); (1, 1); (2, 3); (3, 5); (10, 177); (20, 21891) ]

let parfib_gph_correct () =
  let v, report =
    Rts.run (V.gph_steal ~ncaps:4 ()).config (fun () ->
        W.Parfib.gph ~n:18 ~threshold:8 ())
  in
  check Alcotest.int "value" (W.Parfib.reference 18) v;
  check Alcotest.bool "sparked a lot" true (report.Report.sparks.created > 50)

let parfib_threshold_above_n_is_sequential () =
  let v, report =
    Rts.run (V.gph_steal ~ncaps:4 ()).config (fun () ->
        W.Parfib.gph ~n:12 ~threshold:13 ())
  in
  check Alcotest.int "value" (W.Parfib.reference 12) v;
  check Alcotest.int "no sparks" 0 report.Report.sparks.created

let parfib_eden_correct () =
  List.iter
    (fun depth ->
      let v, _ =
        Rts.run (V.eden ~npes:4 ()).config (fun () ->
            W.Parfib.eden ~n:16 ~depth ())
      in
      check Alcotest.int (Printf.sprintf "depth %d" depth)
        (W.Parfib.reference 16) v)
    [ 0; 1; 2; 3 ]

let qcheck_parfib =
  QCheck.Test.make ~name:"parfib == nfib (any n, threshold)" ~count:25
    QCheck.(pair (int_bound 13) (int_bound 17))
    (fun (n, t) ->
      (* bounds from 0, as QCheck's shrinker assumes *)
      let n = n + 3 and threshold = t + 1 in
      let v, _ =
        Rts.run (V.gph_steal ~ncaps:3 ()).config (fun () ->
            W.Parfib.gph ~n ~threshold ())
      in
      v = W.Parfib.reference n)

let parfib_granularity_tradeoff () =
  (* very fine granularity must create many more sparks than coarse *)
  let sparks threshold =
    let v, r =
      Rts.run (V.gph_steal ~ncaps:4 ()).config (fun () ->
          W.Parfib.gph ~n:20 ~threshold ())
    in
    check Alcotest.int
      (Printf.sprintf "threshold %d value" threshold)
      (W.Parfib.reference 20) v;
    r.Report.sparks.created + r.Report.sparks.overflowed
  in
  check Alcotest.bool "finer threshold = more sparks" true
    (sparks 5 > 10 * sparks 15)

(* ---------------- mandelbrot ---------------- *)

let mandelbrot_variants_agree () =
  let width = 48 and height = 24 in
  let want = W.Mandelbrot.reference ~width ~height () in
  let g, _ =
    Rts.run (V.gph_steal ~ncaps:4 ()).config (fun () ->
        W.Mandelbrot.gph ~width ~height ())
  in
  let mw, _ =
    Rts.run (V.eden ~npes:4 ()).config (fun () ->
        W.Mandelbrot.eden_mw ~width ~height ())
  in
  check Alcotest.int "gph" want g;
  check Alcotest.int "master-worker" want mw

let mandelbrot_escape_sanity () =
  (* the origin never escapes; a point far outside escapes immediately *)
  check Alcotest.int "origin maxes out" 255 (W.Mandelbrot.escape ~max_iter:255 0.0 0.0);
  check Alcotest.int "outside escapes fast" 1
    (W.Mandelbrot.escape ~max_iter:255 10.0 10.0)

let mandelbrot_rows_irregular () =
  (* row costs must differ substantially across the image *)
  let view = W.Mandelbrot.default_view in
  let _, t_edge = W.Mandelbrot.compute_row ~view ~width:64 ~height:64 0 in
  let _, t_mid = W.Mandelbrot.compute_row ~view ~width:64 ~height:64 32 in
  check Alcotest.bool "middle rows cost more" true (t_mid > 2 * t_edge)

(* The pixel [k] of [n] on an axis from [lo] to [hi], as [compute_row]
   samples it; a 1-pixel axis samples [lo]. *)
let sample lo hi n k =
  lo +. ((hi -. lo) *. float_of_int k /. float_of_int (max 1 (n - 1)))

let mandelbrot_views =
  let v x0 y0 x1 y1 = { W.Mandelbrot.default_view with x0; y0; x1; y1 } in
  [
    W.Mandelbrot.default_view;
    (* every point inside the main cardioid: all four lanes run to
       max_iter together *)
    v (-0.5) (-0.25) 0.0 0.25;
    (* every point outside the set (|c| > 2): all escape at once *)
    v 2.5 1.0 4.0 3.0;
    (* the boundary near the seahorse valley: lanes finish apart *)
    v (-0.8) 0.05 (-0.7) 0.15;
  ]

let qcheck_mandelbrot_lanes =
  let gen =
    QCheck.Gen.(
      let* view =
        oneof
          [
            oneofl mandelbrot_views;
            (let* x0 = float_range (-2.5) 1.0 and* y0 = float_range (-1.5) 1.5 in
             let* dx = float_range (-1.5) 1.5 and* dy = float_range (-1.5) 1.5 in
             return
               { W.Mandelbrot.default_view with x0; y0; x1 = x0 +. dx; y1 = y0 +. dy });
          ]
      in
      let* max_iter = int_range 0 300 and* width = int_range 1 67 in
      let* height = int_range 1 67 in
      let* y = int_range 0 (height - 1) in
      return ({ view with W.Mandelbrot.max_iter }, width, height, y))
  in
  let print ((v : W.Mandelbrot.view), width, height, y) =
    Printf.sprintf "view (%h, %h)-(%h, %h) max_iter %d, width %d, height %d, row %d"
      v.x0 v.y0 v.x1 v.y1 v.max_iter width height y
  in
  QCheck.Test.make ~name:"mandelbrot compute_row == escape per pixel" ~count:300
    (QCheck.make ~print gen)
    (fun (view, width, height, y) ->
      let row, total = W.Mandelbrot.compute_row ~view ~width ~height y in
      let ci = sample view.y0 view.y1 height y in
      let want =
        Array.init width (fun x ->
            W.Mandelbrot.escape ~max_iter:view.max_iter
              (sample view.x0 view.x1 width x)
              ci)
      in
      row = want && total = Array.fold_left ( + ) 0 want)

let mandelbrot_pinned_references () =
  (* measured with the one-point loop *)
  List.iter
    (fun (d, want) ->
      check Alcotest.int (Printf.sprintf "%dx%d" d d) want
        (W.Mandelbrot.reference ~width:d ~height:d ()))
    [ (300, 6_011_010); (500, 16_723_816) ]

let mandelbrot_one_pixel_axis () =
  (* c = -1 never escapes, while a NaN sample (0 /. 0 on a 1-pixel
     axis) counts 1 iteration *)
  let view = { W.Mandelbrot.default_view with x0 = -1.0; y0 = 0.0 } in
  let max_iter = view.max_iter in
  check
    Alcotest.(pair (array int) int)
    "1x1 samples (x0, y0)" ([| max_iter |], max_iter)
    (W.Mandelbrot.compute_row ~view ~width:1 ~height:1 0);
  let row, _ = W.Mandelbrot.compute_row ~view ~width:1 ~height:7 3 in
  check Alcotest.(array int) "a 1-wide row samples x0"
    [| W.Mandelbrot.escape ~max_iter (-1.0) (sample view.y0 view.y1 7 3) |]
    row;
  let row, _ = W.Mandelbrot.compute_row ~view ~width:5 ~height:1 0 in
  check Alcotest.int "a 1-high image samples y0" max_iter row.(0)

let suite =
  ( "extensions",
    [
      test_case "spark pool overflows" `Quick spark_pool_overflows;
      test_case "spark pool default capacity" `Quick spark_pool_default_capacity;
      test_case "threads migrate on a shared heap only" `Quick
        threads_migrate_on_shared_heap_only;
      test_case "spark threads amortise creation" `Quick
        spark_threads_create_fewer_threads;
      test_case "parfib known values" `Quick parfib_known_values;
      test_case "parfib gph correct" `Quick parfib_gph_correct;
      test_case "parfib threshold above n" `Quick parfib_threshold_above_n_is_sequential;
      test_case "parfib eden depths" `Quick parfib_eden_correct;
      QCheck_alcotest.to_alcotest qcheck_parfib;
      test_case "parfib granularity tradeoff" `Quick parfib_granularity_tradeoff;
      test_case "mandelbrot variants agree" `Quick mandelbrot_variants_agree;
      test_case "mandelbrot escape sanity" `Quick mandelbrot_escape_sanity;
      test_case "mandelbrot rows irregular" `Quick mandelbrot_rows_irregular;
      QCheck_alcotest.to_alcotest qcheck_mandelbrot_lanes;
      test_case "mandelbrot pinned references" `Quick mandelbrot_pinned_references;
      test_case "mandelbrot 1-pixel axis samples the low edge" `Quick
        mandelbrot_one_pixel_axis;
    ] )
