(** SplitMix64 deterministic pseudo-random number generator.

    Every source of randomness in the simulator (steal victim selection,
    workload generation, jitter) draws from an explicitly-seeded [t], so
    any experiment is exactly reproducible from its seed.  SplitMix64 is
    the standard splittable generator (Steele, Lea & Flood, OOPSLA'14);
    it passes BigCrush and supports cheap splitting for per-entity
    streams.

    The state is 8 unboxed bytes rather than a mutable [int64] field,
    which would box a fresh [Int64] on every draw: with the mix inlined
    into each draw, a draw allocates nothing.  A draw adds one fixed
    gamma to the state and mixes the sum, so [k] draws add [k] gammas,
    mod 2^64: [skip] jumps over them in O(1). *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] state t = Bytes.get_int64_le t 0
let[@inline] set_state t z = Bytes.set_int64_le t 0 z

let of_state s =
  let t = Bytes.create 8 in
  set_state t s;
  t

let create seed = of_state (Int64.of_int seed)

(* The output of the draw that moves the state to [z]. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let z = Int64.add (state t) golden_gamma in
  set_state t z;
  mix z

let skip t k =
  if k < 0 then invalid_arg "Rng.skip: negative count";
  set_state t (Int64.add (state t) (Int64.mul (Int64.of_int k) golden_gamma))

(* Derive an independent generator; the two streams do not overlap in
   practice (distinct gamma-advanced states). *)
let split t = of_state (Int64.mul (next_int64 t) 0xDA942042E4DD58B5L)

(* Non-negative 62-bit int. *)
let[@inline] next_int t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(* Rejection sampling to avoid modulo bias, as a loop of its own: a
   local [let rec] would allocate its closure on every draw. *)
let rec below t bound =
  let r = next_int t in
  let v = r mod bound in
  if r - v > (max_int - bound) + 1 then below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t bound

(* Uniform float in [0, 1): the top 53 bits, scaled by 2^-53, which is
   exact. *)
let[@inline] unit_float r = Int64.to_float (Int64.shift_right_logical r 11) *. 0x1p-53

let[@inline] float t = unit_float (next_int64 t)

(* Compared here: a float returned to another module is boxed. *)
let bernoulli t p = float t < p

(* The state stays in a local between elements: [z] is the state the
   next element's draw moves to. *)
let fill_float ?(stride = 1) t (a : float array) lo hi =
  if stride < 1 then invalid_arg "Rng.fill_float: stride must be positive";
  let step = Int64.mul (Int64.of_int stride) golden_gamma in
  let z = ref (Int64.add (state t) golden_gamma) in
  for i = lo to hi do
    a.(i) <- unit_float (mix !z);
    z := Int64.add !z step
  done;
  set_state t (Int64.sub !z golden_gamma)

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
