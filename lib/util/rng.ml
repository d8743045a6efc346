(** SplitMix64 deterministic pseudo-random number generator.

    Every source of randomness in the simulator (steal victim selection,
    workload generation, jitter) draws from an explicitly-seeded [t], so
    any experiment is exactly reproducible from its seed.  SplitMix64 is
    the standard splittable generator (Steele, Lea & Flood, OOPSLA'14);
    it passes BigCrush and supports cheap splitting for per-entity
    streams.

    The state is 8 unboxed bytes rather than a mutable [int64] field,
    which would box a fresh [Int64] on every draw: with the mix inlined
    into each draw, a draw allocates nothing. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Derive an independent generator; the two streams do not overlap in
   practice (distinct gamma-advanced states). *)
let split t = of_state (Int64.mul (next_int64 t) 0xDA942042E4DD58B5L)

(* Non-negative 62-bit int. *)
let next_int t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec go () =
    let r = next_int t in
    let v = r mod bound in
    if r - v > (max_int - bound) + 1 then go () else v
  in
  go ()

(* Uniform float in [0, 1). *)
let[@inline] float t =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

let fill_float t (a : float array) lo hi =
  for i = lo to hi do
    a.(i) <- float t
  done

(* Uniform int in [lo, hi] inclusive. *)
let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int t (hi - lo + 1)

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
