(** Dense float matrices: representation, reference multiply, blocked
    kernels, and the virtual cost model of the paper's Haskell code.

    The simulator can run matrix workloads in two payload modes:

    - [Real]: block kernels actually compute (results are verified
      against {!mul_ref}); used by tests, examples and small runs.
    - [Synthetic]: kernels charge exactly the same virtual cost but skip
      the floating-point work, so large parameter sweeps (the paper's
      2000x2000 speedup curves) stay fast.  Virtual-time behaviour is
      identical by construction: the cost charged does not depend on
      the mode.  See DESIGN.md ("substitutions"). *)

type payload = Real | Synthetic

type mat = float array array

let make n f : mat = Array.init n (fun i -> Array.init n (fun j -> f i j))

let zero n : mat = Array.make_matrix n n 0.0

(* Deterministic pseudo-random matrix (values in [0,1)). *)
let random ~seed n : mat =
  let rng = Repro_util.Rng.create seed in
  make n (fun _ _ -> Repro_util.Rng.float rng)

let checksum (m : mat) =
  Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0.0 m

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

(* Not [make]: its closure would box every float it returns. *)
let transpose (m : mat) : mat =
  let n = Array.length m in
  let t = zero n in
  Array.iteri (fun i mi -> for j = 0 to n - 1 do t.(j).(i) <- mi.(j) done) m;
  t

(* A fresh row [i] of [a*b], read from [bt = transpose b] so that both
   operands of a dot product are rows.  Four columns per pass over [k]
   share each load of [a.(i).(k)] and keep four sums in flight; the 0-3
   left over go one at a time.  Each column is summed from 0.0 in
   ascending [k], so every element is bit-identical to [mul_ref]'s. *)
let mul_row (a : mat) (bt : mat) i =
  let n = Array.length a in
  let ai = a.(i) and ci = Array.make n 0.0 in
  for q = 0 to (n / 4) - 1 do
    let j = 4 * q in
    let b0 = bt.(j) and b1 = bt.(j + 1) and b2 = bt.(j + 2) and b3 = bt.(j + 3) in
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for k = 0 to n - 1 do
      let aik = ai.(k) in
      s0 := !s0 +. (aik *. b0.(k));
      s1 := !s1 +. (aik *. b1.(k));
      s2 := !s2 +. (aik *. b2.(k));
      s3 := !s3 +. (aik *. b3.(k))
    done;
    ci.(j) <- !s0;
    ci.(j + 1) <- !s1;
    ci.(j + 2) <- !s2;
    ci.(j + 3) <- !s3
  done;
  for j = n - (n mod 4) to n - 1 do
    let bj = bt.(j) and s = ref 0.0 in
    for k = 0 to n - 1 do s := !s +. (ai.(k) *. bj.(k)) done;
    ci.(j) <- !s
  done;
  ci

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
