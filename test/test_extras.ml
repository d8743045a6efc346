(** Tests for the later additions: the SVG trace renderer and the
    calibration-sensitivity harness. *)

module Rts = Repro_parrts.Rts
module Config = Repro_parrts.Config
module Machine = Repro_machine.Machine
module E = Repro_experiments

let test_case = Alcotest.test_case
let check = Alcotest.check

let gph_cfg ?(ncaps = 4) () =
  let machine = Machine.make ~name:"t" ~cores:ncaps ~clock_ghz:1.0 () in
  { (Config.default ~machine ~ncaps ()) with load_balance = Config.Work_stealing }

(* ---------------- SVG renderer ---------------- *)

let svg_renders () =
  let _, report =
    Rts.run (gph_cfg ~ncaps:2 ()) (fun () ->
        ignore (Repro_workloads.Sumeuler.gph ~n:400 ()))
  in
  let svg =
    Repro_trace.Render_svg.render ~title:"test <&> title" report.trace
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "is svg" true (contains svg "<svg");
  check Alcotest.bool "closes svg" true (contains svg "</svg>");
  check Alcotest.bool "escapes title" true (contains svg "&lt;&amp;&gt;");
  check Alcotest.bool "has rows for both caps" true
    (contains svg "cap 0" && contains svg "cap 1");
  check Alcotest.bool "uses running colour" true (contains svg "#2e8b57")

let svg_to_file () =
  let trace = Repro_trace.Trace.create ~caps:1 in
  Repro_trace.Trace.set_state trace ~time:0 ~cap:0 Repro_trace.Trace.Running;
  Repro_trace.Trace.finish trace ~time:100;
  let path = Filename.temp_file "repro_trace" ".svg" in
  Repro_trace.Render_svg.to_file trace path;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  check Alcotest.bool "file written" true (len > 200)

(* ---------------- sensitivity ---------------- *)

let sensitivity_shapes_robust () =
  let r = E.Sensitivity.run ~n:6000 () in
  check Alcotest.int "12 perturbations" 12 (List.length r.outcomes);
  check Alcotest.bool "weak shape robust to every perturbation" true
    (E.Sensitivity.all_weak r);
  check Alcotest.bool "strong ordering holds for >= 75%" true
    (E.Sensitivity.strong_fraction r >= 0.75)

let suite =
  ( "extras",
    [
      test_case "svg renders" `Quick svg_renders;
      test_case "svg to file" `Quick svg_to_file;
      test_case "sensitivity: shapes robust" `Slow sensitivity_shapes_robust;
    ] )
