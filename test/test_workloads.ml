(** Tests for the benchmark workloads: every parallel variant must
    compute the same values as its sequential reference, under every
    runtime configuration. *)

module Rts = Repro_parrts.Rts
module V = Repro_core.Versions
module W = Repro_workloads

let test_case = Alcotest.test_case
let check = Alcotest.check

(* ---------------- Euler / sumEuler ---------------- *)

let phi_agree () =
  for k = 1 to 300 do
    check Alcotest.int
      (Printf.sprintf "phi %d" k)
      (W.Euler.phi_naive k) (W.Euler.phi_fast k)
  done

(* From 1048573 on, each k leaves a cofactor of at least 1023^2 after
   the table of primes below 2^10, so the odd candidates past it
   settle the value; 1000003 is a prime the table settles alone.  The
   last five sit near the top of the [int] range, where [n * inv]
   wraps; each value comes from its factorisation. *)
let phi_known_values () =
  List.iter
    (fun (k, v) -> check Alcotest.int (Printf.sprintf "phi %d" k) v (W.Euler.phi_fast k))
    [ (1, 1); (2, 1); (9, 6); (10, 4); (97, 96); (100, 40); (360, 96);
      (1_000_003, 1_000_002); (1_048_573, 1_048_572);
      (1_062_961 (* 1031^2 *), 1_061_930);
      (1_065_023 (* 1031 * 1033 *), 1_062_960);
      (1_031_003_093 (* 1000003 * 1031 *), 1_030_002_060);
      (4_295_098_369 (* 65537^2 *), 4_295_032_832);
      (1 lsl 61, 1 lsl 60);
      (4_052_555_153_018_976_267 (* 3^39 *), 2_701_703_435_345_984_178);
      (1_132_803_161_805_372_121 (* 1021^6 *), 1_131_693_658_218_883_020);
      (614_889_782_588_491_410 (* the primes to 47 *), 85_287_729_364_992_000);
      (2_701_904_242_746_422_169 (* 1031^2 * 3^26 *), 1_799_522_386_051_609_980) ];
  Alcotest.check_raises "phi_fast 0"
    (Invalid_argument "Euler.phi_fast: k must be positive") (fun () ->
      ignore (W.Euler.phi_fast 0))

(* Sums of phi 1..n from a sieve independent of phi_fast, so the
   reference every checksum is checked against is pinned too; 300,000
   is perfbench's size, and past 1023^2 the odd candidates after the
   table run. *)
let sumeuler_pinned_references () =
  List.iter
    (fun (n, want) ->
      check Alcotest.int (Printf.sprintf "sum_euler_ref %d" n) want
        (W.Euler.sum_euler_ref n))
    [ (2_000, 1_216_588); (15_000, 68_394_316); (300_000, 27_356_748_484);
      (1 lsl 20, 334_211_599_246); (1_100_000, 367_796_225_332) ]

(* The totients of 1..2^21 from a linear sieve, which builds each from
   a smaller one by multiplicativity: phi (i p) is phi i * p when p
   divides i, else phi i * (p - 1).  The range crosses 1023^2, so the
   odd candidates past the table run as well; the comparison loop
   allocates nothing, and neither may phi_fast. *)
let phi_fast_matches_sieve () =
  let n = 1 lsl 21 in
  let phi = Array.make (n + 1) 0 and primes = Array.make ((n / 2) + 1) 0 in
  let count = ref 0 in
  phi.(1) <- 1;
  for i = 2 to n do
    if phi.(i) = 0 then begin
      phi.(i) <- i - 1;
      primes.(!count) <- i;
      incr count
    end;
    let j = ref 0 in
    while !j < !count && primes.(!j) * i <= n do
      let p = primes.(!j) in
      if i mod p = 0 then begin
        phi.(i * p) <- phi.(i) * p;
        j := !count
      end
      else begin
        phi.(i * p) <- phi.(i) * (p - 1);
        incr j
      end
    done
  done;
  let w0 = Gc.minor_words () in
  let k = ref 1 in
  while !k <= n && W.Euler.phi_fast !k = phi.(!k) do
    incr k
  done;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "first k where phi_fast and the sieve differ" (n + 1) !k;
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words for 2^21 calls" words)
    true (words <= 16.0)

let qcheck_phi_agree =
  QCheck.Test.make ~name:"phi_fast == phi_naive" ~count:150
    QCheck.(int_range 1 2000)
    (fun k -> W.Euler.phi_fast k = W.Euler.phi_naive k)

let phi_cost_grows () =
  let c100 = W.Euler.phi_cost 100 and c1000 = W.Euler.phi_cost 1000 in
  check Alcotest.bool "cost grows" true
    (c1000.Repro_util.Cost.cycles > c100.Repro_util.Cost.cycles)

let sumeuler_all_versions_agree () =
  let n = 400 in
  let expect = W.Euler.sum_euler_ref n in
  List.iter
    (fun (v : V.version) ->
      let is_eden = Repro_parrts.Config.is_distributed v.config in
      let got, _ =
        Rts.run v.config (fun () ->
            if is_eden then W.Sumeuler.eden ~n ()
            else W.Sumeuler.gph ~n ())
      in
      check Alcotest.int v.label expect got)
    (V.fig1_versions ~ncaps:4 ())

(* ---------------- Matrix / matmul ---------------- *)

let matrix_ref_identity () =
  let n = 8 in
  let id = W.Matrix.make n (fun i j -> if i = j then 1.0 else 0.0) in
  let a = W.Matrix.random ~seed:3 n in
  let prod = W.Matrix.mul_ref a id in
  check (Alcotest.float 1e-9) "A * I = A" (W.Matrix.checksum a)
    (W.Matrix.checksum prod)

let matrix_block_equals_ref () =
  let n = 20 in
  let a = W.Matrix.random ~seed:1 n and b = W.Matrix.random ~seed:2 n in
  let out = W.Matrix.zero n in
  let bs = 7 in
  let r0 = ref 0 in
  while !r0 < n do
    let c0 = ref 0 in
    while !c0 < n do
      W.Matrix.mul_block a b out ~r0:!r0 ~c0:!c0 ~bs;
      c0 := !c0 + bs
    done;
    r0 := !r0 + bs
  done;
  let want = W.Matrix.checksum (W.Matrix.mul_ref a b) in
  check Alcotest.bool "blocked == reference" true
    (Float.abs (W.Matrix.checksum out -. want) < 1e-9 *. Float.abs want)

let matrix_row_segment_equals_ref () =
  let n = 12 in
  let a = W.Matrix.random ~seed:5 n and b = W.Matrix.random ~seed:6 n in
  let out = W.Matrix.zero n in
  for i = 0 to n - 1 do
    W.Matrix.mul_row_segment a b out ~i ~c0:0 ~cols:n
  done;
  let want = W.Matrix.checksum (W.Matrix.mul_ref a b) in
  check Alcotest.bool "row segments == reference" true
    (Float.abs (W.Matrix.checksum out -. want) < 1e-9 *. Float.abs want)

(* Rows filled alone are those rows of [random], and columns filled
   alone are those rows of its transpose, built here by hand, bit for
   bit: any block (the empty ones, those from row 0 and those to the
   last row included) at sizes 1-4 and 67, over any seed. *)
let qcheck_matrix_draws =
  let gen =
    QCheck.Gen.(
      let* n = oneofl [ 1; 2; 3; 4; 67 ] in
      let* lo = oneof [ return 0; int_range 0 n ] in
      let* hi =
        oneof [ return (n - 1); return (lo - 1); int_range (lo - 1) (n - 1) ]
      in
      let* seed = int in
      return (n, lo, hi, seed))
  in
  let print (n, lo, hi, seed) =
    Printf.sprintf "n %d, rows %d..%d, seed %d" n lo hi seed
  in
  QCheck.Test.make ~name:"matrix fill_rows/fill_cols == rows of random/its transpose"
    ~count:300 (QCheck.make ~print gen)
    (fun (n, lo, hi, seed) ->
      let m = W.Matrix.random ~seed n in
      let t = Array.init n (fun j -> Array.init n (fun i -> m.(i).(j))) in
      let bits = Array.map (Array.map Int64.bits_of_float) in
      let block x = bits (Array.sub x lo (max 0 (hi - lo + 1))) in
      let filled fill =
        let rows = W.Matrix.create (max 0 (hi - lo + 1)) n in
        fill rows ~seed ~lo;
        bits rows
      in
      filled W.Matrix.fill_rows = block m && filled W.Matrix.fill_cols = block t)

(* Matmul's bt at the benchmark's size, 384 columns drawn into 384
   rows: each column costs one 3-word generator and nothing else (no
   boxed seed, no [Some] for the stride), plus the iterating closure.
   The bound is that figure, 1,158 words, and a little slack. *)
let matrix_fill_cols_allocation () =
  let m = W.Matrix.create 384 384 in
  W.Matrix.fill_cols m ~seed:43 ~lo:0;
  let w0 = Gc.minor_words () in
  W.Matrix.fill_cols m ~seed:43 ~lo:0;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words for 384 columns, at most 1,200" words)
    true (words <= 1_200.0)

(* A Real-payload matmul returns its product's checksum unchecked; it
   must be, to a relative 1e-6, the checksum of [mul_ref] on the inputs
   the program draws ([random ~seed:42 n] and [random ~seed:43 n] by
   default). *)
let check_product what n got =
  let want =
    W.Matrix.(checksum (mul_ref (random ~seed:42 n) (random ~seed:43 n)))
  in
  check Alcotest.bool
    (Printf.sprintf "%s: checksum %h, reference %h" what got want)
    true
    (Float.abs (got -. want) <= 1e-6 *. Float.abs want)

let matmul_variants_agree () =
  let n = 48 in
  let g, _ =
    Rts.run (V.gph_steal ~ncaps:4 ()).config (fun () ->
        W.Matmul.gph ~payload:W.Matrix.Real ~n ~block:13 ())
  in
  let e, _ =
    Rts.run (V.eden ~npes:5 ()).config (fun () ->
        W.Matmul.eden_cannon ~payload:W.Matrix.Real ~n ~q:2 ())
  in
  check_product "gph" n g;
  check_product "cannon" n e;
  check Alcotest.bool "gph == cannon" true (Float.abs (g -. e) < 1e-9 *. Float.abs g)

let matmul_lazy_bh_still_correct () =
  (* duplicate evaluation must never corrupt results *)
  let n = 40 in
  let v = V.gph_plain ~ncaps:4 () in
  let g, _ =
    Rts.run v.config (fun () -> W.Matmul.gph ~payload:W.Matrix.Real ~n ~block:9 ())
  in
  check_product "lazy black-holing" n g

(* Each program at sizes its decomposition does not divide evenly,
   against its sequential reference.  Mandelbrot at 1x1, 5x3 and 61x7
   (one pixel past the last group of four) under GpH lazy and eager
   stealing and Eden's master-worker, prefetching 1 and the default;
   Real-payload matmul in GpH blocks of 1, 5 and n, and by Cannon on
   1x1, 2x2 and 3x3 tori. *)
let programs_match_references () =
  let lazy_steal = V.gph_steal ~ncaps:4 () in
  let eager_steal = V.with_eager lazy_steal and eden = V.eden ~npes:4 () in
  List.iter
    (fun (width, height) ->
      let want = W.Mandelbrot.reference ~width ~height () in
      List.iter
        (fun (what, (v : V.version), program) ->
          let got, _ = Rts.run v.config program in
          check Alcotest.int
            (Printf.sprintf "mandelbrot %dx%d %s" width height what)
            want got)
        [
          ("gph lazy steal", lazy_steal, fun () -> W.Mandelbrot.gph ~width ~height ());
          ("gph eager steal", eager_steal, fun () -> W.Mandelbrot.gph ~width ~height ());
          ( "eden prefetch 1",
            eden,
            fun () -> W.Mandelbrot.eden_mw ~prefetch:1 ~width ~height () );
          ("eden", eden, fun () -> W.Mandelbrot.eden_mw ~width ~height ());
        ])
    [ (1, 1); (5, 3); (61, 7) ];
  let n = 12 in
  List.iter
    (fun block ->
      let got, _ =
        Rts.run eager_steal.config (fun () ->
            W.Matmul.gph ~payload:W.Matrix.Real ~block ~n ())
      in
      check_product (Printf.sprintf "gph block %d" block) n got)
    [ 1; 5; n ];
  List.iter
    (fun q ->
      let got, _ =
        Rts.run (V.eden ~npes:((q * q) + 1) ()).config (fun () ->
            W.Matmul.eden_cannon ~payload:W.Matrix.Real ~n ~q ())
      in
      check_product (Printf.sprintf "cannon %dx%d" q q) n got)
    [ 1; 2; 3 ]

let matmul_synthetic_runs () =
  let _, report =
    Rts.run (V.gph_steal ~ncaps:4 ()).config (fun () ->
        ignore (W.Matmul.gph ~payload:W.Matrix.Synthetic ~n:200 ()))
  in
  check Alcotest.bool "virtual time advanced" true
    (report.Repro_parrts.Report.elapsed_ns > 0)

let cannon_rejects_bad_grid () =
  Alcotest.check_raises "q must divide n"
    (Invalid_argument "Matmul.eden_cannon: q must divide n") (fun () ->
      ignore
        (Rts.run (V.eden ~npes:5 ()).config (fun () ->
             W.Matmul.eden_cannon ~n:50 ~q:3 ())))

(* ---------------- APSP ---------------- *)

let apsp_reference_sanity () =
  (* tiny graph with known shortest paths *)
  let inf = infinity in
  let adj =
    [|
      [| 0.; 1.; 4.; inf |];
      [| inf; 0.; 2.; 5. |];
      [| inf; inf; 0.; 1. |];
      [| inf; inf; inf; 0. |];
    |]
  in
  let d = W.Apsp.floyd_warshall adj in
  check (Alcotest.float 1e-9) "0->2 via 1" 3.0 d.(0).(2);
  check (Alcotest.float 1e-9) "0->3 via 1,2" 4.0 d.(0).(3);
  check (Alcotest.float 1e-9) "unreachable" inf d.(3).(0)

(* Weights are integers from 1 to 100, so every path sum is exact and
   every variant's checksum equals the reference's bit for bit. *)
let apsp_reference ?seed n =
  Int64.bits_of_float (W.Apsp.checksum (W.Apsp.floyd_warshall (W.Apsp.graph ?seed n)))

let check_bits what expect got =
  check Alcotest.int64 what expect (Int64.bits_of_float got)

let apsp_variants_agree () =
  let n = 60 in
  let expect = apsp_reference n in
  let lazy_g, _ =
    Rts.run (V.gph_steal ~ncaps:4 ()).config (fun () -> W.Apsp.gph ~n ())
  in
  let eager_g, _ =
    Rts.run (V.with_eager (V.gph_steal ~ncaps:4 ())).config (fun () ->
        W.Apsp.gph ~n ())
  in
  let eden_g, _ =
    Rts.run (V.eden ~npes:4 ()).config (fun () -> W.Apsp.eden_ring ~n ())
  in
  check_bits "lazy gph" expect lazy_g;
  check_bits "eager gph" expect eager_g;
  check_bits "eden ring" expect eden_g

let apsp_ring_nprocs_variants () =
  let n = 30 in
  let expect = apsp_reference n in
  List.iter
    (fun nprocs ->
      let got, _ =
        Rts.run (V.eden ~npes:6 ()).config (fun () ->
            W.Apsp.eden_ring ~nprocs ~n ())
      in
      check_bits (Printf.sprintf "ring of %d" nprocs) expect got)
    [ 1; 2; 3; 5; 6 ]

(* GpH apsp of 1-40 nodes under lazy and eager black-holing on 1, 2 and
   8 caps: final rows start from their pivots, the last row folds the
   pivots, and duplicates skip their bodies. *)
let qcheck_apsp_sizes =
  QCheck.Test.make ~name:"apsp gph == floyd_warshall (random sizes/seeds)"
    ~count:40
    QCheck.(pair (int_bound 39) (int_range 0 1000))
    (fun (n, seed) ->
      (* sizes from 0, as QCheck's shrinker assumes *)
      let n = n + 1 in
      let want = apsp_reference ~seed n in
      List.for_all
        (fun (ncaps, eager) ->
          let v = V.gph_steal ~ncaps () in
          let v = if eager then V.with_eager v else v in
          let got, _ = Rts.run v.config (fun () -> W.Apsp.gph ~seed ~n ()) in
          Int64.bits_of_float got = want)
        [ (1, false); (1, true); (2, false); (2, true); (8, false); (8, true) ])

(* A block of rows built alone is that block of the whole graph, bit
   for bit: any block of a graph of 0-67 nodes (the empty ones, those
   from row 0 and those to the last row included), over several seeds
   and densities. *)
let qcheck_apsp_graph_rows =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 67 in
      let* lo = oneof [ return 0; int_range 0 n ] in
      let* hi =
        oneof [ return (n - 1); return (lo - 1); int_range (lo - 1) (n - 1) ]
      in
      let* seed = int_range 0 1000 and* density = oneofl [ 0.0; 0.2; 0.5; 1.0 ] in
      return (n, lo, hi, seed, density))
  in
  let print (n, lo, hi, seed, density) =
    Printf.sprintf "n %d, rows %d..%d, seed %d, density %g" n lo hi seed density
  in
  QCheck.Test.make ~name:"apsp graph_rows == rows of graph" ~count:300
    (QCheck.make ~print gen)
    (fun (n, lo, hi, seed, density) ->
      W.Apsp.graph_rows ~seed ~density n ~lo ~hi
      = Array.sub (W.Apsp.graph ~seed ~density n) lo (max 0 (hi - lo + 1)))

(* A 256-node graph allocates its rows and little else: each draw
   allocates nothing (no rejection closure, no boxed float), so the
   minor heap sees the n rows of n + 1 words, the outer array's n + 1
   and a constant (the dropped row, the generator, the row closure). *)
let apsp_graph_allocates_its_rows () =
  let n = 256 in
  let w0 = Gc.minor_words () in
  let g = W.Apsp.graph n in
  let words = Gc.minor_words () -. w0 in
  let rows = float_of_int ((n + 1) * (n + 1)) in
  check Alcotest.int "rows" n (Array.length g);
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words <= %.0f for the rows + 512" words rows)
    true
    (words <= rows +. 512.0)

(* Apsp.checksum sums in an unboxed loop: a 64-node result allocates
   a few words (the boxed sum it returns), not a box per entry, and
   every sum keeps the bits of the polymorphic fold it replaced, also
   folded block by block through [checksum_from]. *)
let apsp_checksum_allocates_nothing () =
  let fold d =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun a x -> if x < infinity then a +. x else a) acc row)
      0.0 d
  in
  let d = W.Apsp.floyd_warshall (W.Apsp.graph 64) in
  let w0 = Gc.minor_words () in
  let sum = W.Apsp.checksum d in
  let words = Gc.minor_words () -. w0 in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words for a 64-node checksum" words)
    true (words <= 16.0);
  List.iter
    (fun n ->
      let d = W.Apsp.floyd_warshall (W.Apsp.graph n) in
      let bits x = Int64.bits_of_float x in
      check Alcotest.int64 (Printf.sprintf "%d nodes: the fold's bits" n)
        (bits (fold d)) (bits (W.Apsp.checksum d));
      let blocks =
        List.init 3 (fun b -> Array.sub d (b * n / 3) (((b + 1) * n / 3) - (b * n / 3)))
      in
      check Alcotest.int64 (Printf.sprintf "%d nodes: block by block" n)
        (bits (fold d))
        (bits (List.fold_left W.Apsp.checksum_from 0.0 blocks)))
    [ 1; 17; 64 ];
  check Alcotest.int64 "64 nodes, unchanged" (Int64.bits_of_float (fold d))
    (Int64.bits_of_float sum);
  (* the checksum every backend prints at 256 nodes, its bits as an int *)
  check Alcotest.int "256 nodes, pinned" (-4526957222894239744)
    (Int64.to_int
       (Int64.bits_of_float (W.Apsp.checksum (W.Apsp.floyd_warshall (W.Apsp.graph 256)))))

(* Apsp.relax against the one-lane loop it replaced: rows of every
   length 1-67, so every remainder of its eight lanes occurs, entries
   integer weights 0-100 or infinity (so some [row.(k)] is unreachable),
   compared bit for bit.  A row relaxed against itself with a zero
   diagonal, as [pivot_step] relaxes row [k], stays as it was. *)
let one_lane_relax (row : float array) ~k (pk : float array) =
  let rk = row.(k) in
  if rk < infinity then
    for j = 0 to Array.length row - 1 do
      let via = rk +. pk.(j) in
      if via < row.(j) then row.(j) <- via
    done

let qcheck_apsp_relax =
  let gen =
    QCheck.Gen.(
      let entry =
        frequency
          [ (4, map float_of_int (int_range 0 100)); (1, return infinity) ]
      in
      let* n = int_range 1 67 in
      let* k = int_range 0 (n - 1) in
      let* row = array_size (return n) entry
      and* pk = array_size (return n) entry in
      return (k, row, pk))
  in
  let print (k, row, pk) =
    let show a =
      String.concat " " (Array.to_list (Array.map string_of_float a))
    in
    Printf.sprintf "k %d\nrow %s\npk %s" k (show row) (show pk)
  in
  let bits a = Array.map Int64.bits_of_float a in
  QCheck.Test.make ~name:"apsp relax == one-lane min-plus loop" ~count:500
    (QCheck.make ~print gen)
    (fun (k, row, pk) ->
      let got = Array.copy row and want = Array.copy row in
      W.Apsp.relax got ~k pk;
      one_lane_relax want ~k pk;
      let self = Array.copy row in
      self.(k) <- 0.0;
      let before = Array.copy self in
      W.Apsp.relax self ~k self;
      bits got = bits want && bits self = bits before)

let apsp_relax_checks_length () =
  Alcotest.check_raises "pivot of another length"
    (Invalid_argument "Apsp.relax: pivot length") (fun () ->
      W.Apsp.relax (Array.make 9 1.0) ~k:0 (Array.make 8 1.0))

(* Under lazy black-holing two evaluators really run one pivot thunk;
   each relaxes a row of its own, so the result stays exact. *)
let apsp_lazy_duplicates_eager_not () =
  let n = 80 in
  let expect = apsp_reference n in
  let lazy_g, lazy_rep =
    Rts.run (V.gph_steal ~ncaps:8 ()).config (fun () -> W.Apsp.gph ~n ())
  in
  let eager_g, eager_rep =
    Rts.run (V.with_eager (V.gph_steal ~ncaps:8 ())).config (fun () ->
        W.Apsp.gph ~n ())
  in
  check_bits "lazy gph" expect lazy_g;
  check_bits "eager gph" expect eager_g;
  check Alcotest.bool "lazy duplicates pivot work" true
    (lazy_rep.Repro_parrts.Report.dup_work_entries > 0);
  check Alcotest.int "eager never duplicates" 0
    eager_rep.Repro_parrts.Report.dup_work_entries;
  check Alcotest.bool "eager blocks instead" true
    (eager_rep.Repro_parrts.Report.blocked_forces > 0)

let suite =
  ( "workloads",
    [
      test_case "phi fast == naive (1..300)" `Quick phi_agree;
      test_case "phi known values" `Quick phi_known_values;
      test_case "sumEuler pinned references" `Quick sumeuler_pinned_references;
      test_case "phi_fast == sieve (1..2^21)" `Quick phi_fast_matches_sieve;
      QCheck_alcotest.to_alcotest qcheck_phi_agree;
      test_case "phi cost grows" `Quick phi_cost_grows;
      test_case "sumEuler: all versions agree" `Quick sumeuler_all_versions_agree;
      test_case "matrix: A*I = A" `Quick matrix_ref_identity;
      test_case "matrix: blocked == ref" `Quick matrix_block_equals_ref;
      test_case "matrix: row segments == ref" `Quick matrix_row_segment_equals_ref;
      QCheck_alcotest.to_alcotest qcheck_matrix_draws;
      test_case "matrix fill_cols allocates one generator per column" `Quick
        matrix_fill_cols_allocation;
      test_case "matmul: gph == cannon" `Quick matmul_variants_agree;
      test_case "matmul: lazy BH correct" `Quick matmul_lazy_bh_still_correct;
      test_case "programs at odd sizes == reference" `Quick
        programs_match_references;
      test_case "matmul: synthetic payload" `Quick matmul_synthetic_runs;
      test_case "cannon: rejects bad grid" `Quick cannon_rejects_bad_grid;
      test_case "apsp: reference sanity" `Quick apsp_reference_sanity;
      test_case "apsp: variants agree" `Quick apsp_variants_agree;
      test_case "apsp: ring process counts" `Quick apsp_ring_nprocs_variants;
      QCheck_alcotest.to_alcotest qcheck_apsp_sizes;
      QCheck_alcotest.to_alcotest qcheck_apsp_graph_rows;
      test_case "apsp: graph allocates its rows only" `Quick
        apsp_graph_allocates_its_rows;
      QCheck_alcotest.to_alcotest qcheck_apsp_relax;
      test_case "apsp: relax checks the pivot's length" `Quick
        apsp_relax_checks_length;
      test_case "apsp: lazy duplicates, eager blocks" `Quick
        apsp_lazy_duplicates_eager_not;
      test_case "apsp: checksum allocates nothing" `Quick
        apsp_checksum_allocates_nothing;
    ] )
