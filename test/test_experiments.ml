(** Integration tests: every figure's experiment at reduced size, with
    the paper's qualitative shape assertions. *)

module E = Repro_experiments

let test_case = Alcotest.test_case
let check = Alcotest.check

(* Fig. 1 at a size where the ordering is stable (every figure's
   full-size output is diffed against its copy in test/figures/). *)
let fig1_ordering () =
  let r = E.Fig1.run ~n:8000 () in
  check Alcotest.int "five rows" 5 (List.length r.rows);
  check Alcotest.bool "each optimisation improves; Eden fastest" true
    (E.Fig1.ordering_holds r)

let fig1_table_renders () =
  let r = E.Fig1.run ~n:2000 () in
  let s = Repro_util.Tablefmt.to_string (E.Fig1.to_table r) in
  check Alcotest.bool "mentions Eden row" true
    (let needle = "Eden" in
     let nl = String.length needle and hl = String.length s in
     let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
     go 0)

let fig2_traces () =
  let r = E.Fig2.run ~n:4000 () in
  check Alcotest.int "five traces" 5 (List.length r.traces);
  List.iter
    (fun (label, trace) ->
      let u = Repro_trace.Trace.utilisation trace in
      if u < 0.3 || u > 1.0 then
        Alcotest.fail (Printf.sprintf "%s: implausible utilisation %f" label u))
    r.traces;
  (* the work-stealing trace must be the busiest GpH trace *)
  let util label =
    Repro_trace.Trace.utilisation (List.assoc label r.traces)
  in
  check Alcotest.bool "stealing busier than plain" true
    (util "GpH, above + work stealing for sparks" > util "GpH in plain GHC-6.9");
  (* rendering works and contains one row per capability *)
  let rendered = E.Fig2.render ~width:60 r in
  check Alcotest.bool "rendered" true (String.length rendered > 1000)

let fig3_shapes () =
  let r = E.Fig3.run ~cores:[ 1; 4; 8; 16 ] ~n_euler:6000 ~n_mat:600 () in
  check Alcotest.bool "paper shapes hold" true (E.Fig3.shapes_hold r);
  (* each series has one speedup per core count, all positive, and the
     1-core point is 1.0 *)
  List.iter
    (fun (s : E.Exp.series) ->
      check Alcotest.int (s.s_label ^ " points") 4 (List.length s.speedups);
      (match s.speedups with
      | one :: _ -> check (Alcotest.float 1e-6) (s.s_label ^ " base") 1.0 one
      | [] -> Alcotest.fail "empty series");
      List.iter (fun sp -> if sp <= 0.0 then Alcotest.fail "non-positive speedup") s.speedups)
    (r.sumeuler @ r.matmul)

let fig4_shapes () =
  let r = E.Fig4.run ~n:600 () in
  check Alcotest.int "five entries" 5 (List.length r.entries);
  check Alcotest.bool
    "stealing best GpH; Eden 17 virtual PEs beats 9; Eden beats plain" true
    (E.Fig4.shapes_hold r)

let fig5_shapes () =
  let r = E.Fig5.run ~cores:[ 1; 4; 8; 16 ] ~n:300 () in
  check Alcotest.bool
    "lazy flattens, eager rescues, Eden scales (paper Fig. 5)" true
    (E.Fig5.shapes_hold r);
  (* the lazy work-stealing version must do markedly worse than eager *)
  let final name =
    let s = E.Fig5.by_label r name in
    match List.rev s.speedups with x :: _ -> x | [] -> 0.0
  in
  check Alcotest.bool "lazy stealing stays low" true
    (final "GpH + work stealing, lazy black-holing" < 4.0);
  check Alcotest.bool "Eden above all GpH versions" true
    (final "Eden ring (PVM)" > final "GpH + work stealing, eager black-holing")

let speedup_plot_renders () =
  let r = E.Fig5.run ~cores:[ 1; 2 ] ~n:60 () in
  let plot = E.Exp.render_speedup_plot r.series in
  check Alcotest.bool "plot non-empty" true (String.length plot > 100)

let paper_data_consistent () =
  check Alcotest.int "five fig1 rows" 5 (List.length E.Paper.fig1_runtimes_s);
  let times = List.map snd E.Paper.fig1_runtimes_s in
  let rec decreasing = function
    | a :: (b :: _ as r) -> a > b && decreasing r
    | _ -> true
  in
  check Alcotest.bool "paper's own rows decrease" true (decreasing times)

let suite =
  ( "experiments",
    [
      test_case "fig1 ordering" `Slow fig1_ordering;
      test_case "fig1 table renders" `Quick fig1_table_renders;
      test_case "fig2 traces plausible" `Slow fig2_traces;
      test_case "fig3 shapes" `Slow fig3_shapes;
      test_case "fig4 shapes" `Slow fig4_shapes;
      test_case "fig5 shapes" `Slow fig5_shapes;
      test_case "speedup plot renders" `Quick speedup_plot_renders;
      test_case "paper data consistent" `Quick paper_data_consistent;
    ] )
