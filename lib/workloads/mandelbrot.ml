(** Mandelbrot set rendering: an irregular data-parallel farm.

    Rows of the image cost wildly different amounts (points inside the
    set run the full iteration budget), which makes this the standard
    irregular-parallelism workload: static splitting misbalances, and
    dynamic balancing (stealing / master-worker) wins.

    Points are computed for real; the charged cost is proportional to
    the actual iterations performed (about [iter_cycles] per iteration
    of the escape loop in compiled code).  The host runs four adjacent
    points through one loop at a time ([escape4]), which only makes
    computing the counts faster: every count is the one-point loop's,
    and the charge stays [iter_cycles] per iteration actually
    performed.  The programs return their sum unchecked, for the
    caller to compare with {!reference}: a check here would render
    the image again, uncharged. *)

module Cost = Repro_util.Cost
module Gph = Repro_core.Gph
module Eden = Repro_core.Eden
module Skeletons = Repro_core.Skeletons
module Api = Repro_parrts.Rts.Api

let iter_cycles = 12

type view = { x0 : float; y0 : float; x1 : float; y1 : float; max_iter : int }

(* The classic seahorse-valley-ish framing: plenty of in-set points. *)
let default_view = { x0 = -2.0; y0 = -1.25; x1 = 0.5; y1 = 1.25; max_iter = 255 }

(* Finish the orbit of c = (cr, ci) from z = (zr, zi) after [i]
   iterations: the escape loop of one point.  Inlined, so that its
   callers pass it unboxed floats. *)
let[@inline] resume ~max_iter cr ci zr zi i =
  let zr = ref zr and zi = ref zi and i = ref i in
  while (!zr *. !zr) +. (!zi *. !zi) <= 4.0 && !i < max_iter do
    let zr' = (!zr *. !zr) -. (!zi *. !zi) +. cr in
    zi := (2.0 *. !zr *. !zi) +. ci;
    zr := zr';
    incr i
  done;
  !i

(* Escape iterations for one point. *)
let escape ~max_iter cr ci = resume ~max_iter cr ci 0.0 0.0 0

(* The [k]th of [n] samples from [lo] to [hi]; a 1-pixel axis samples
   [lo]. *)
let[@inline] coord lo hi n k =
  lo +. ((hi -. lo) *. float_of_int k /. float_of_int (Int.max 1 (n - 1)))

(* Pixels [x] .. [x + 3] of a row, whose imaginary part is [ci]: the
   four orbits run in lockstep while all four are inside the escape
   radius and below [max_iter], then each finishes alone in [resume].
   One orbit is a chain of dependent float operations; four independent
   chains fill the pipeline.  Each orbit performs the one-point loop's
   operations in its order, so every count is [escape]'s.  Writes the
   four counts into [row]; returns their sum. *)
let escape4 ~(view : view) ~width row x ci =
  let max_iter = view.max_iter in
  let cr0 = coord view.x0 view.x1 width x
  and cr1 = coord view.x0 view.x1 width (x + 1)
  and cr2 = coord view.x0 view.x1 width (x + 2)
  and cr3 = coord view.x0 view.x1 width (x + 3) in
  let zr0 = ref 0.0 and zi0 = ref 0.0 and zr1 = ref 0.0 and zi1 = ref 0.0 in
  let zr2 = ref 0.0 and zi2 = ref 0.0 and zr3 = ref 0.0 and zi3 = ref 0.0 in
  let i = ref 0 in
  while
    (!zr0 *. !zr0) +. (!zi0 *. !zi0) <= 4.0
    && (!zr1 *. !zr1) +. (!zi1 *. !zi1) <= 4.0
    && (!zr2 *. !zr2) +. (!zi2 *. !zi2) <= 4.0
    && (!zr3 *. !zr3) +. (!zi3 *. !zi3) <= 4.0
    && !i < max_iter
  do
    let r0 = (!zr0 *. !zr0) -. (!zi0 *. !zi0) +. cr0 in
    zi0 := (2.0 *. !zr0 *. !zi0) +. ci;
    zr0 := r0;
    let r1 = (!zr1 *. !zr1) -. (!zi1 *. !zi1) +. cr1 in
    zi1 := (2.0 *. !zr1 *. !zi1) +. ci;
    zr1 := r1;
    let r2 = (!zr2 *. !zr2) -. (!zi2 *. !zi2) +. cr2 in
    zi2 := (2.0 *. !zr2 *. !zi2) +. ci;
    zr2 := r2;
    let r3 = (!zr3 *. !zr3) -. (!zi3 *. !zi3) +. cr3 in
    zi3 := (2.0 *. !zr3 *. !zi3) +. ci;
    zr3 := r3;
    incr i
  done;
  let n0 = resume ~max_iter cr0 ci !zr0 !zi0 !i
  and n1 = resume ~max_iter cr1 ci !zr1 !zi1 !i
  and n2 = resume ~max_iter cr2 ci !zr2 !zi2 !i
  and n3 = resume ~max_iter cr3 ci !zr3 !zi3 !i in
  row.(x) <- n0;
  row.(x + 1) <- n1;
  row.(x + 2) <- n2;
  row.(x + 3) <- n3;
  n0 + n1 + n2 + n3

(* Compute one row of the image, four pixels at a time and the last
   [width mod 4] alone; returns (iterations per pixel, total
   iterations) — the total drives the charged cost. *)
let compute_row ~(view : view) ~width ~height y =
  let row = Array.make width 0 in
  let total = ref 0 in
  let ci = coord view.y0 view.y1 height y in
  let quads = width / 4 in
  for q = 0 to quads - 1 do
    total := !total + escape4 ~view ~width row (4 * q) ci
  done;
  for x = 4 * quads to width - 1 do
    let it = escape ~max_iter:view.max_iter (coord view.x0 view.x1 width x) ci in
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
  List.fold_left (fun acc r -> acc + Gph.force r) 0 rows

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
  List.fold_left ( + ) 0 totals
