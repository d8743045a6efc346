(** Dense float matrices: representation, reference multiply, blocked
    kernels, and the virtual cost model of the paper's Haskell code.

    The simulator can run matrix workloads in two payload modes:

    - [Real]: block kernels actually compute (callers compare the
      result with {!mul_ref}'s); used by tests, examples and small runs.
    - [Synthetic]: kernels charge exactly the same virtual cost but skip
      the floating-point work, so large parameter sweeps (the paper's
      2000x2000 speedup curves) stay fast.  Virtual-time behaviour is
      identical by construction: the cost charged does not depend on
      the mode.  See DESIGN.md ("substitutions"). *)

module Rng = Repro_util.Rng

type payload = Real | Synthetic

type mat = float array array

let make n f : mat = Array.init n (fun i -> Array.init n (fun j -> f i j))

let zero n : mat = Array.make_matrix n n 0.0

(* [rows] fresh rows of [n] floats whose contents are unspecified,
   for a fill below to overwrite. *)
let create rows n : mat = Array.init rows (fun _ -> Array.create_float n)

(* The deterministic pseudo-random matrix [random ~seed n] (values in
   [0,1)) is drawn row by row in index order: entry [(i, j)] is draw
   [i * n + j] of [Rng.create seed].  [fill_rows m ~seed ~lo] writes
   its rows [lo], [lo + 1], ... into the rows of [m], [n] their length,
   skipping the draws of the rows before [lo] instead of making them. *)
let fill_rows (m : mat) ~seed ~lo =
  let rng = Rng.create seed in
  if Array.length m > 0 then Rng.skip rng (lo * Array.length m.(0));
  Array.iter (fun row -> Rng.fill_float rng row 0 (Array.length row - 1)) m

let random ~seed n =
  let m = create n n in
  fill_rows m ~seed ~lo:0;
  m

(* Columns [lo], [lo + 1], ... of [random ~seed n] into the rows of
   [m]: column [j] is draws [j], [n + j], [2n + j], ..., one stride of
   [n] draws apart. *)
let fill_cols (m : mat) ~seed ~lo =
  Array.iteri
    (fun r row ->
      let n = Array.length row and rng = Rng.create seed in
      Rng.skip rng (lo + r);
      Rng.fill_float ~stride:n rng row 0 (n - 1))
    m

(* [acc] plus every entry of [m], row by row in index order, in an
   unboxed sum. *)
let checksum_from acc (m : mat) =
  let s = ref acc in
  for i = 0 to Array.length m - 1 do
    let row = m.(i) in
    for j = 0 to Array.length row - 1 do
      s := !s +. row.(j)
    done
  done;
  !s

let checksum m = checksum_from 0.0 m

(* Sequential reference multiply (ikj loop order). *)
let mul_ref (a : mat) (b : mat) : mat =
  let n = Array.length a in
  let c = zero n in
  for i = 0 to n - 1 do
    let ai = a.(i) and ci = c.(i) in
    for k = 0 to n - 1 do
      let aik = ai.(k) in
      if aik <> 0.0 then begin
        let bk = b.(k) in
        for j = 0 to n - 1 do
          ci.(j) <- ci.(j) +. (aik *. bk.(j))
        done
      end
    done
  done;
  c

(* Raise unless every row of [m] has length [n]: [mul_rows] reads them
   unchecked. *)
let check_rows (m : mat) n =
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Matrix.mul_rows: ragged matrix")
    m

(* Row [r] of [a*b] into row [r] of [into], for every row of [a] (any
   rows of the left operand), read from [bt], the transpose of the
   square [b], so that both operands of a dot product are rows.  The
   lengths of the rows of [a], [bt] and [into] are checked once, up
   front.  Rows go two at a time: for each group of four columns one
   pass over [k] reads unchecked and keeps eight sums in flight, each
   load serving two of them.  An odd last row is its own partner: both
   halves of the tile compute and store the same values.  The 0-3
   columns left over go one at a time, so every element is stored.
   Each element is summed from 0.0 in ascending [k], so every element
   is bit-identical to [mul_ref]'s. *)
let mul_rows ~(into : mat) (a : mat) (bt : mat) =
  let n = Array.length bt and hi = Array.length a - 1 in
  if Array.length into <> hi + 1 then invalid_arg "Matrix.mul_rows: row counts differ";
  check_rows a n;
  check_rows bt n;
  check_rows into n;
  let i = ref 0 in
  while !i <= hi do
    let i1 = min (!i + 1) hi in
    let a0 = a.(!i) and a1 = a.(i1) in
    let c0 = into.(!i) and c1 = into.(i1) in
    for q = 0 to (n / 4) - 1 do
      let j = 4 * q in
      let b0 = bt.(j) and b1 = bt.(j + 1) and b2 = bt.(j + 2) and b3 = bt.(j + 3) in
      let s00 = ref 0.0 and s01 = ref 0.0 and s02 = ref 0.0 and s03 = ref 0.0 in
      let s10 = ref 0.0 and s11 = ref 0.0 and s12 = ref 0.0 and s13 = ref 0.0 in
      for k = 0 to n - 1 do
        let x0 = Array.unsafe_get a0 k and x1 = Array.unsafe_get a1 k in
        let y0 = Array.unsafe_get b0 k and y1 = Array.unsafe_get b1 k in
        let y2 = Array.unsafe_get b2 k and y3 = Array.unsafe_get b3 k in
        s00 := !s00 +. (x0 *. y0);
        s01 := !s01 +. (x0 *. y1);
        s02 := !s02 +. (x0 *. y2);
        s03 := !s03 +. (x0 *. y3);
        s10 := !s10 +. (x1 *. y0);
        s11 := !s11 +. (x1 *. y1);
        s12 := !s12 +. (x1 *. y2);
        s13 := !s13 +. (x1 *. y3)
      done;
      c0.(j) <- !s00;
      c0.(j + 1) <- !s01;
      c0.(j + 2) <- !s02;
      c0.(j + 3) <- !s03;
      c1.(j) <- !s10;
      c1.(j + 1) <- !s11;
      c1.(j + 2) <- !s12;
      c1.(j + 3) <- !s13
    done;
    for j = n - (n mod 4) to n - 1 do
      let bj = bt.(j) and s0 = ref 0.0 and s1 = ref 0.0 in
      for k = 0 to n - 1 do
        s0 := !s0 +. (a0.(k) *. bj.(k));
        s1 := !s1 +. (a1.(k) *. bj.(k))
      done;
      c0.(j) <- !s0;
      c1.(j) <- !s1
    done;
    i := !i + 2
  done

(* Compute the [bs x bs] block of [a*b] whose top-left corner is
   [(r0, c0)], writing into [out] at the same position.

   Each element is written by pure assignment (dot product into a
   local accumulator), never read-modify-write: under lazy black-holing
   the simulated runtime may evaluate the same block thunk twice, so
   block kernels must be idempotent. *)
let mul_block (a : mat) (b : mat) (out : mat) ~r0 ~c0 ~bs =
  let n = Array.length a in
  let r1 = min n (r0 + bs) and c1 = min n (c0 + bs) in
  for i = r0 to r1 - 1 do
    let ai = a.(i) and oi = out.(i) in
    for j = c0 to c1 - 1 do
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (ai.(k) *. b.(k).(j))
      done;
      oi.(j) <- !s
    done
  done

(* Compute one row segment of [a*b]: row [i], columns [c0..c0+cols).
   Pure assignment (idempotent, see mul_block). *)
let mul_row_segment (a : mat) (b : mat) (out : mat) ~i ~c0 ~cols =
  let n = Array.length a in
  let c1 = min n (c0 + cols) in
  let ai = a.(i) and oi = out.(i) in
  for j = c0 to c1 - 1 do
    let s = ref 0.0 in
    for k = 0 to n - 1 do
      s := !s +. (ai.(k) *. b.(k).(j))
    done;
    oi.(j) <- !s
  done

(* Multiply-accumulate of two [m x m] blocks: [c += a * b]. *)
let mac_block (a : mat) (b : mat) (c : mat) =
  let m = Array.length a in
  for i = 0 to m - 1 do
    let ai = a.(i) and ci = c.(i) in
    for k = 0 to m - 1 do
      let aik = ai.(k) in
      let bk = b.(k) in
      for j = 0 to m - 1 do
        ci.(j) <- ci.(j) +. (aik *. bk.(j))
      done
    done
  done

let sub_block (m : mat) ~r0 ~c0 ~bs : mat =
  Array.init bs (fun i -> Array.sub m.(r0 + i) c0 bs)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

(* Cycles per multiply-accumulate in GHC-compiled code over unboxed
   arrays (load, fused multiply-add, index arithmetic, bounds). *)
let mac_cycles = 7

(* Allocation per produced result element: the Haskell versions build
   fresh (unboxed) result structures plus transient boxing. *)
let elem_alloc_bytes = 10

(* Virtual cost of producing a [rows x cols] piece of the result of an
   [n]-dimension multiply. *)
let block_cost ~n ~rows ~cols : Repro_util.Cost.t =
  Repro_util.Cost.make
    (rows * cols * n * mac_cycles)
    ~alloc:(rows * cols * elem_alloc_bytes)

(* Virtual cost of one [m x m] block multiply-accumulate (Cannon
   round). *)
let mac_block_cost ~m : Repro_util.Cost.t =
  Repro_util.Cost.make (m * m * m * mac_cycles) ~alloc:(m * m * 4)

(* Live data: the two input matrices plus the result. *)
let resident ~n = 3 * n * n * 8
