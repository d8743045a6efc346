(** Tests for Repro_util: RNG, stats, cost, tables, list helpers. *)

open Repro_util

let test_case = Alcotest.test_case
let check = Alcotest.check

(* ---------------- Rng ---------------- *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.next_int a) (Rng.next_int b)
  done

(* The stream itself, for two seeds: the first [next_int], [float] and
   [int] draws, then a [split] child's, as literals.  Any change to the
   state's step or the mix moves them; [fill_float] must draw the same
   floats in index order. *)
let rng_pinned_stream () =
  List.iter
    (fun (seed, (n, f, i), (cn, cf, ci)) ->
      let what s = Printf.sprintf "seed %d: %s" seed s in
      let r = Rng.create seed in
      check Alcotest.int (what "next_int") n (Rng.next_int r);
      check Alcotest.int (what "float bits") (Int64.to_int (Int64.bits_of_float f))
        (Int64.to_int (Int64.bits_of_float (Rng.float r)));
      check Alcotest.int (what "int 1000") i (Rng.int r 1000);
      let c = Rng.split r in
      check Alcotest.int (what "child next_int") cn (Rng.next_int c);
      check Alcotest.int (what "child float bits")
        (Int64.to_int (Int64.bits_of_float cf))
        (Int64.to_int (Int64.bits_of_float (Rng.float c)));
      check Alcotest.int (what "child int 1000") ci (Rng.int c 1000);
      let a = Rng.create seed and b = Rng.create seed in
      let filled = Array.make 7 nan in
      Rng.fill_float ~stride:1 a filled 2 5;
      check Alcotest.(array (float 0.0)) (what "fill_float 2..5")
        (Array.init 7 (fun j -> if j < 2 || j > 5 then nan else Rng.float b))
        filled)
    [
      (42, (3419864383188818853, 0x1.477f199d93378p-3, 964),
        (2586259887266143407, 0x1.d5eb332e0d577p-1, 579));
      (0, (4073552104164651883, 0x1.b9e279aa86e58p-2, 419),
        (2974944666070038301, 0x1.e1016a1c84acfp-1, 861));
    ]

(* [skip t k] is [k] draws made at once: after it, the next [m]
   [next_int] draws, and the next [m] [float] draws, are draws
   [k..k+m-1] of [create seed] made one at a time, for any seed. *)
let qcheck_rng_skip =
  let print (seed, k, m) = Printf.sprintf "seed %d, skip %d, %d draws" seed k m in
  QCheck.Test.make ~name:"rng skip k == k draws" ~count:60
    (QCheck.make ~print
       QCheck.Gen.(triple int (int_range 0 300_000) (int_range 0 50)))
    (fun (seed, k, m) ->
      let stepped draw =
        let r = Rng.create seed in
        for _ = 1 to k do
          ignore (Rng.next_int r)
        done;
        List.init m (fun _ -> draw r)
      and jumped draw =
        let r = Rng.create seed in
        Rng.skip r k;
        List.init m (fun _ -> draw r)
      in
      let float_bits r = Int64.bits_of_float (Rng.float r) in
      jumped Rng.next_int = stepped Rng.next_int
      && jumped float_bits = stepped float_bits)

(* Skips add up, mod 2^64 on the state, far past any count drawn one
   at a time. *)
let qcheck_rng_skip_adds =
  let big = 1 lsl 60 in
  QCheck.Test.make ~name:"rng skip a; skip b == skip (a + b)" ~count:300
    QCheck.(triple int (oneof [ int_bound 300_000; int_bound big ])
              (oneof [ int_bound 300_000; int_bound big ]))
    (fun (seed, a, b) ->
      let two = Rng.create seed and one = Rng.create seed in
      Rng.skip two a;
      Rng.skip two b;
      Rng.skip one (a + b);
      List.init 4 (fun _ -> Rng.next_int two) = List.init 4 (fun _ -> Rng.next_int one))

(* [fill_float ~stride] takes every [stride]-th draw and leaves the
   generator [stride] draws on per element. *)
let rng_fill_float_stride () =
  List.iter
    (fun stride ->
      let a = Rng.create 17 and b = Rng.create 17 in
      let filled = Array.make 7 nan in
      Rng.fill_float ~stride a filled 1 5;
      let want =
        Array.init 7 (fun j ->
            if j < 1 || j > 5 then nan
            else begin
              let f = Rng.float b in
              Rng.skip b (stride - 1);
              f
            end)
      in
      let what = Printf.sprintf "stride %d" stride in
      check Alcotest.(array (float 0.0)) what want filled;
      check Alcotest.int (what ^ ": left after the last stride") (Rng.next_int b)
        (Rng.next_int a))
    [ 1; 2; 3; 67 ];
  Alcotest.check_raises "stride 0" (Invalid_argument "Rng.fill_float: stride must be positive")
    (fun () -> Rng.fill_float ~stride:0 (Rng.create 1) [| 0.0 |] 0 0);
  Alcotest.check_raises "negative skip" (Invalid_argument "Rng.skip: negative count")
    (fun () -> Rng.skip (Rng.create 1) (-1))

(* The draws a caller outside [Rng] makes in a loop allocate nothing:
   [int]'s rejection loop is no closure, [bernoulli] compares its float
   where it is drawn, and [skip] and [fill_float] touch only the
   state.  (A [float] returned to another module is boxed.) *)
let rng_draws_allocate_nothing () =
  let r = Rng.create 5 and row = Array.create_float 64 in
  List.iter
    (fun (what, f) ->
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        f ()
      done;
      let words = Gc.minor_words () -. w0 in
      check Alcotest.bool
        (Printf.sprintf "%s: %.0f minor words in 10,000 calls" what words)
        true (words < 64.0))
    [
      ("int", fun () -> ignore (Rng.int r 100 : int));
      ("next_int", fun () -> ignore (Rng.next_int r : int));
      ("bernoulli", fun () -> ignore (Rng.bernoulli r 0.2 : bool));
      ("skip", fun () -> Rng.skip r 384);
      ("fill_float", fun () -> Rng.fill_float ~stride:1 r row 0 63);
    ]

let rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 13 in
    if v < 0 || v >= 13 then Alcotest.fail "Rng.int out of bounds"
  done;
  for _ = 1 to 10_000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "Rng.float out of bounds"
  done

let rng_uniformish () =
  let r = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.fail "bucket count deviates by more than 20%")
    buckets

let rng_split_independent () =
  let r = Rng.create 1 in
  let a = Rng.split r and b = Rng.split r in
  let xs = List.init 50 (fun _ -> Rng.next_int a) in
  let ys = List.init 50 (fun _ -> Rng.next_int b) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int_range r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "int_range out of bounds"
  done;
  check Alcotest.int "singleton range" 4 (Rng.int_range r 4 4)

let rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle_in_place r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 100 Fun.id) sorted

(* ---------------- Stats ---------------- *)

let stats_basic () =
  let s = Stats.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min_value s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max_value s);
  check (Alcotest.float 1e-6) "variance" (5.0 /. 3.0) (Stats.variance s)

let stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile xs 50.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile xs 100.0)

let stats_qcheck_mean =
  QCheck.Test.make ~name:"stats mean matches direct computation" ~count:200
    QCheck.(
      pair (float_bound_inclusive 1000.0)
        (list_of_size Gen.(0 -- 49) (float_bound_inclusive 1000.0)))
    (fun (x, rest) ->
      (* a head and a tail, so no shrink reaches the empty list *)
      let xs = x :: rest in
      let s = Stats.of_list xs in
      let direct = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. direct) < 1e-6 *. (1.0 +. Float.abs direct))

(* ---------------- Cost ---------------- *)

let cost_arith () =
  let a = Cost.make 100 ~alloc:10 and b = Cost.make 50 ~alloc:5 in
  let s = Cost.add a b in
  check Alcotest.int "cycles" 150 s.Cost.cycles;
  check Alcotest.int "alloc" 15 s.Cost.alloc;
  check Alcotest.bool "zero" true (Cost.is_zero Cost.zero);
  let d = Cost.scale 3 b in
  check Alcotest.int "scaled" 150 d.Cost.cycles;
  Alcotest.check_raises "negative cycles" (Invalid_argument "Cost.make: negative cycles")
    (fun () -> ignore (Cost.make (-1)))

(* ---------------- Tablefmt ---------------- *)

let table_render () =
  let t = Tablefmt.create ~aligns:[ Tablefmt.Left; Tablefmt.Right ] [ "name"; "v" ] in
  Tablefmt.add_row t [ "x"; "1" ];
  Tablefmt.add_row t [ "longer"; "22" ];
  let s = Tablefmt.to_string t in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "contains header" true (contains s "name");
  check Alcotest.bool "right-aligned value" true (contains s "|  1 |");
  Alcotest.check_raises "bad row arity"
    (Invalid_argument "Tablefmt.add_row: wrong number of columns") (fun () ->
      Tablefmt.add_row t [ "only-one" ])

(* ---------------- Listx ---------------- *)

let listx_split () =
  check Alcotest.(list (list int)) "unshuffle"
    [ [ 1; 4 ]; [ 2; 5 ]; [ 3 ] ]
    (Listx.unshuffle 3 [ 1; 2; 3; 4; 5 ]);
  check Alcotest.(list int) "shuffle . unshuffle = id" [ 1; 2; 3; 4; 5 ]
    (Listx.shuffle (Listx.unshuffle 3 [ 1; 2; 3; 4; 5 ]))

let listx_qcheck_roundtrip =
  QCheck.Test.make ~name:"shuffle . unshuffle = id" ~count:300
    QCheck.(pair (int_bound 9) (small_list small_nat))
    (fun (n, xs) ->
      (* bounds from 0, as QCheck's shrinker assumes *)
      Listx.shuffle (Listx.unshuffle (n + 1) xs) = xs)

let suite =
  ( "util",
    [
      test_case "rng deterministic" `Quick rng_deterministic;
      test_case "rng pinned stream" `Quick rng_pinned_stream;
      test_case "rng bounds" `Quick rng_bounds;
      test_case "rng uniform-ish" `Quick rng_uniformish;
      test_case "rng split independent" `Quick rng_split_independent;
      test_case "rng int_range" `Quick rng_int_range;
      test_case "rng shuffle permutes" `Quick rng_shuffle_permutes;
      QCheck_alcotest.to_alcotest qcheck_rng_skip;
      QCheck_alcotest.to_alcotest qcheck_rng_skip_adds;
      test_case "rng fill_float strides" `Quick rng_fill_float_stride;
      test_case "rng draws allocate nothing" `Quick rng_draws_allocate_nothing;
      test_case "stats basic" `Quick stats_basic;
      test_case "stats percentile" `Quick stats_percentile;
      QCheck_alcotest.to_alcotest stats_qcheck_mean;
      test_case "cost arithmetic" `Quick cost_arith;
      test_case "table render" `Quick table_render;
      test_case "listx split/unshuffle" `Quick listx_split;
      QCheck_alcotest.to_alcotest listx_qcheck_roundtrip;
    ] )
