(** Mandelbrot set rendering: an irregular data-parallel farm.

    Rows of the image cost wildly different amounts (points inside the
    set run the full iteration budget), which makes this the standard
    irregular-parallelism workload: static splitting misbalances, and
    dynamic balancing (stealing / master-worker) wins.

    Points are computed for real; the charged cost is proportional to
    the actual iterations performed (about [iter_cycles] per iteration
    of the escape loop in compiled code). *)

module Cost = Repro_util.Cost
module Listx = Repro_util.Listx
module Gph = Repro_core.Gph
module Eden = Repro_core.Eden
module Skeletons = Repro_core.Skeletons
module Api = Repro_parrts.Rts.Api

let iter_cycles = 12

type view = { x0 : float; y0 : float; x1 : float; y1 : float; max_iter : int }

(* The classic seahorse-valley-ish framing: plenty of in-set points. *)
let default_view = { x0 = -2.0; y0 = -1.25; x1 = 0.5; y1 = 1.25; max_iter = 255 }

(* Escape iterations for one point. *)
let escape ~max_iter cr ci =
  let zr = ref 0.0 and zi = ref 0.0 and i = ref 0 in
  while (!zr *. !zr) +. (!zi *. !zi) <= 4.0 && !i < max_iter do
    let zr' = (!zr *. !zr) -. (!zi *. !zi) +. cr in
    zi := (2.0 *. !zr *. !zi) +. ci;
    zr := zr';
    incr i
  done;
  !i

(* Compute one row of the image; returns (iterations per pixel, total
   iterations) — the total drives the charged cost. *)
let compute_row ~(view : view) ~width ~height y =
  let row = Array.make width 0 in
  let total = ref 0 in
  let ci =
    view.y0 +. ((view.y1 -. view.y0) *. float_of_int y /. float_of_int (height - 1))
  in
  for x = 0 to width - 1 do
    let cr =
      view.x0 +. ((view.x1 -. view.x0) *. float_of_int x /. float_of_int (width - 1))
    in
    let it = escape ~max_iter:view.max_iter cr ci in
    row.(x) <- it;
    total := !total + it
  done;
  (row, !total)

let row_cost ~width total_iters =
  Cost.make (total_iters * iter_cycles) ~alloc:((8 * width) + 24)

(** Sequential reference: checksum = sum of all iteration counts. *)
let reference ?(view = default_view) ~width ~height () =
  let sum = ref 0 in
  for y = 0 to height - 1 do
    let _, t = compute_row ~view ~width ~height y in
    sum := !sum + t
  done;
  !sum

(** GpH version: one spark per row (costs are irregular, so dynamic
    balancing matters). *)
let gph ?(view = default_view) ~width ~height () =
  Api.set_resident (8 * width * height);
  let rows =
    List.init height (fun y ->
        (* the cost is data-dependent: compute the row inside the thunk
           and charge for the iterations actually performed *)
        Gph.thunk ~size:((8 * width) + 24)
          ~cost:(Cost.make 200 ~alloc:64)
          (fun () ->
            let _row, total = compute_row ~view ~width ~height y in
            Api.charge (row_cost ~width total);
            total))
  in
  Gph.par_list Gph.rwhnf (List.rev rows);
  let sum = List.fold_left (fun acc r -> acc + Gph.force r) 0 rows in
  let want = reference ~view ~width ~height () in
  if sum <> want then failwith "mandelbrot/gph: checksum mismatch";
  sum

(** Eden version: master-worker over rows — the dynamic balancing
    pattern the skeleton exists for. *)
let eden_mw ?(view = default_view) ?prefetch ~width ~height () =
  let f y =
    let _row, total = compute_row ~view ~width ~height y in
    Api.charge (row_cost ~width total);
    ([], total)
  in
  let totals =
    Skeletons.master_worker ?prefetch ~tr_task:Eden.t_int ~tr_res:Eden.t_int f
      (List.init height Fun.id)
  in
  let sum = List.fold_left ( + ) 0 totals in
  let want = reference ~view ~width ~height () in
  if sum <> want then failwith "mandelbrot/eden: checksum mismatch";
  sum

(** Eden farm with static round-robin splitting (for comparison with
    the dynamic master-worker). *)
let eden_farm ?(view = default_view) ~width ~height () =
  let worker ys =
    List.fold_left
      (fun acc y ->
        let _row, total = compute_row ~view ~width ~height y in
        Api.charge (row_cost ~width total);
        acc + total)
      0 ys
  in
  let pieces = Listx.unshuffle (Api.ncaps ()) (List.init height Fun.id) in
  let partials =
    Eden.spawn ~tr_in:(Eden.t_list Eden.t_int) ~tr_out:Eden.t_int worker pieces
  in
  let sum = List.fold_left ( + ) 0 partials in
  let want = reference ~view ~width ~height () in
  if sum <> want then failwith "mandelbrot/farm: checksum mismatch";
  sum
