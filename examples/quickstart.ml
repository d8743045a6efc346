(** Quickstart: the smallest complete program.

    Runs a GpH-style parallel map on the simulated 8-core shared-heap
    runtime, then the same computation as Eden processes on distributed
    heaps, and prints what the runtime did.

    {v dune exec examples/quickstart.exe v} *)

module Rts = Repro_parrts.Rts
module Api = Repro_parrts.Rts.Api
module Cost = Repro_util.Cost
module Gph = Repro_core.Gph
module Eden = Repro_core.Eden
module Versions = Repro_core.Versions

(* A mock workload: "expensive" squaring.  Real OCaml computes the
   value; the [cost] is what the simulated runtime accounts. *)
let expensive_square x =
  Gph.thunk ~cost:(Cost.make 2_000_000 ~alloc:4096) (fun () -> x * x)

let () =
  (* --- GpH: spark one thunk per element, force them all ----------- *)
  let version = Versions.gph_steal ~ncaps:8 () in
  let result, report =
    Rts.run version.config (fun () ->
        let nodes = List.init 64 (fun i -> expensive_square i) in
        Gph.par_list Gph.rwhnf nodes;
        List.fold_left (fun acc n -> acc + Gph.force n) 0 nodes)
  in
  assert (result = 85344);
  Printf.printf "GpH   (%s):\n  sum of squares 0..63 = %d\n" version.label result;
  Printf.printf "  virtual time %.3f ms, utilisation %.1f%%, sparks stolen %d\n\n"
    (Repro_parrts.Report.elapsed_ms report)
    (100.0 *. report.utilisation)
    report.sparks.stolen;

  (* --- Eden: same computation as communicating processes ---------- *)
  let version = Versions.eden ~npes:8 () in
  let result, report =
    Rts.run version.config (fun () ->
        let worker xs =
          Api.charge (Cost.cycles (2_000_000 * List.length xs));
          List.fold_left (fun a x -> a + (x * x)) 0 xs
        in
        let pieces = Repro_util.Listx.unshuffle 8 (List.init 64 Fun.id) in
        let partials =
          Eden.spawn ~tr_in:(Eden.t_list Eden.t_int) ~tr_out:Eden.t_int worker
            pieces
        in
        List.fold_left ( + ) 0 partials)
  in
  assert (result = 85344);
  Printf.printf "Eden  (%s):\n  sum of squares 0..63 = %d\n" version.label result;
  Printf.printf "  virtual time %.3f ms, utilisation %.1f%%, %d messages (%d bytes)\n"
    (Repro_parrts.Report.elapsed_ms report)
    (100.0 *. report.utilisation)
    report.messages.sent report.messages.bytes
