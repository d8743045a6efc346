(** Cannon's algorithm on a torus of Eden processes, verified against
    the sequential reference (Real payload), and compared with the GpH
    blockwise multiplication.

    {v dune exec examples/cannon_app.exe [n] [q] v} *)

module Rts = Repro_parrts.Rts
module Versions = Repro_core.Versions
module Report = Repro_parrts.Report
module W = Repro_workloads

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 120 in
  let q = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 3 in
  let n = n - (n mod q) in
  Printf.printf "matrix multiplication, %dx%d (real computation, verified)\n\n" n n;
  (* both programs return their product's checksum unchecked: compare
     it with the sequential product of the same inputs *)
  let seed = 42 in
  let want =
    W.Matrix.(checksum (mul_ref (random ~seed n) (random ~seed:(seed + 1) n)))
  in
  let verified got = Float.abs (got -. want) <= 1e-6 *. Float.abs want in

  (* Eden Cannon on q*q workers + parent, all virtual PEs on 8 cores *)
  let v = Versions.eden ~npes:((q * q) + 1) () in
  let checksum, report =
    Rts.run v.config (fun () ->
        W.Matmul.eden_cannon ~payload:W.Matrix.Real ~seed ~n ~q ())
  in
  assert (verified checksum);
  Printf.printf "Eden Cannon %dx%d blocks (%d virtual PEs): %.3f ms, %d messages\n"
    q q ((q * q) + 1)
    (Report.elapsed_ms report)
    report.messages.sent;
  Printf.printf "  checksum %.6f (verified against sequential reference)\n\n"
    checksum;

  (* GpH blockwise, work stealing *)
  let v = Versions.gph_steal ~ncaps:8 () in
  let checksum', report' =
    Rts.run v.config (fun () -> W.Matmul.gph ~payload:W.Matrix.Real ~seed ~n ())
  in
  assert (verified checksum');
  Printf.printf "GpH blockwise (8 caps, work stealing): %.3f ms\n"
    (Report.elapsed_ms report');
  Printf.printf "  checksum %.6f (verified against sequential reference)\n"
    checksum';
  print_newline ();
  print_string
    (Repro_trace.Render.timeline ~width:100 ~title:"Eden Cannon timeline"
       report.trace)
