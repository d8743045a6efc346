(** A topology skeleton at work: a ring of processes computing global
    statistics by circulating partial aggregates.

    Demonstrates the [ring] skeleton on a task that is not one of the
    paper's benchmarks: distributed mean/variance of per-PE data, where
    each process only ships constant-size aggregates around the ring
    (one full revolution).

    {v dune exec examples/ring_stats_app.exe v} *)

module Rts = Repro_parrts.Rts
module Api = Repro_parrts.Rts.Api
module Cost = Repro_util.Cost
module Versions = Repro_core.Versions
module Eden = Repro_core.Eden
module Skeletons = Repro_core.Skeletons

let () =
  let nprocs = 8 in
  let per_pe = 100_000 in
  let v = Versions.eden ~npes:nprocs () in
  Printf.printf "ring of %d PEs, %d samples each\n" nprocs per_pe;
  let (mean, variance), report =
    Rts.run v.config (fun () ->
        let tr_agg : (int * float * float) Eden.trans =
          { bytes = (fun _ -> 48); nf_cycles = (fun _ -> 8) }
        in
        let outs =
          Skeletons.ring ~n:nprocs ~tr_ring:tr_agg
            ~tr_out:(Eden.t_pair Eden.t_float Eden.t_float)
            ~distribute:(fun k -> k)
            ~worker:(fun k seed recv send close_right ->
              (* local data + local aggregate (count, sum, sumsq) *)
              let rng = Repro_util.Rng.create (1000 + seed) in
              Api.charge (Cost.make (12 * per_pe) ~alloc:(8 * per_pe));
              let sum = ref 0.0 and sumsq = ref 0.0 in
              for _ = 1 to per_pe do
                let x = Repro_util.Rng.float rng in
                sum := !sum +. x;
                sumsq := !sumsq +. (x *. x)
              done;
              (* process 0 injects the aggregate; everyone else adds
                 its own and forwards; after one revolution process 0
                 owns the global aggregate *)
              let mine = (per_pe, !sum, !sumsq) in
              if k = 0 then begin
                send mine;
                match recv () with
                | Some (c, s, s2) ->
                    close_right ();
                    let cf = float_of_int c in
                    (s /. cf, (s2 /. cf) -. ((s /. cf) ** 2.0))
                | None -> failwith "ring closed early"
              end
              else begin
                (match recv () with
                | Some (c, s, s2) ->
                    let mc, ms, ms2 = mine in
                    Api.charge (Cost.cycles 20);
                    send (c + mc, s +. ms, s2 +. ms2)
                | None -> failwith "ring closed early");
                close_right ();
                (0.0, 0.0)
              end)
        in
        List.hd outs)
  in
  Printf.printf "global mean = %.6f (expect ~0.5), variance = %.6f (expect ~0.0833)\n"
    mean variance;
  assert (Float.abs (mean -. 0.5) < 0.01);
  assert (Float.abs (variance -. (1.0 /. 12.0)) < 0.01);
  Printf.printf "virtual time %.3f ms, %d messages\n"
    (Repro_parrts.Report.elapsed_ms report)
    report.messages.sent
