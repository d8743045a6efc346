(** Euler's totient function: reference implementations and the cost
    model of the paper's naive Haskell kernel.

    The paper's sumEuler computes [phi] "naively":
    {v phi n = length (filter (relprime n) [1..(n-1)]) v}
    i.e. one [gcd] per candidate.  Running ~1.1e8 real gcds inside the
    simulator for every configuration would be prohibitively slow, so:

    - {!phi_naive} is the literal algorithm (used by tests and small
      runs to validate values and the cost model);
    - {!phi_fast} computes the same value by trial division: by the
      172 primes below 2{^10} (a table built once when the module is
      initialised), then, for a cofactor of at least 1023{^2}
      (possible only when [k] >= 2{^20}), by odd candidates from 1023.
      No table prime runs the divider: 2 comes off with shifts, and an
      odd prime [p] is tested and divided out by one multiply with its
      inverse modulo 2{^63} (Granlund & Montgomery, PLDI 1994, sec. 9):
      [p] divides [n] iff [n * inv] is at most [max_int / p], an
      unsigned compare that is exact for every 0 <= [n] <= [max_int],
      and then [n * inv] is [n / p] exactly.  Hardware division is
      left to the odd candidates past the table and, at most once per
      [k], to a leftover prime factor;
    - {!phi_cost} charges the {e naive} algorithm's virtual cost, which
      is what the simulated runtime accounts regardless of how the
      value is obtained.

    Cost model of the naive kernel (GHC-compiled, per candidate [j]):
    an average Euclid gcd on a random pair (j, k) performs about
    [0.843 * ln k] division steps (Knuth, TAOCP vol. 2, 4.5.3); each
    step costs roughly [gcd_step_cycles] in compiled Haskell, plus
    [elem_overhead_cycles] for the list traversal/filter machinery and
    [elem_alloc_bytes] of cons-cell allocation. *)

let gcd_step_cycles = 30
let elem_overhead_cycles = 20

(* GHC's gcd on unboxed Int is allocation-free; only the residual list
   machinery of filter/length allocates. *)
let elem_alloc_bytes = 8

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let relprime a b = gcd a b = 1

(** The paper's literal kernel. *)
let phi_naive k =
  if k <= 0 then invalid_arg "Euler.phi_naive: k must be positive";
  if k = 1 then 1
  else begin
    let count = ref 0 in
    for j = 1 to k - 1 do
      if relprime j k then incr count
    done;
    !count
  end

(* The primes below 2^10, and for each odd one [p] (every entry but
   2) its inverse modulo 2^63, [max_int / p] with the sign bit flipped
   (so that a signed compare of [x + min_int] with it is an unsigned
   compare of [x]), and [p * p].  Every dist PE initialises this module
   once per farm run, so the tables stay small and are built eagerly;
   not [Lazy], since two domains forcing one lazy value at once can
   raise [Lazy.Undefined]. *)
let small_primes =
  let limit = 1 lsl 10 in
  let composite = Array.make limit false in
  let primes = Array.make limit 0 and count = ref 0 in
  for i = 2 to limit - 1 do
    if not composite.(i) then begin
      primes.(!count) <- i;
      incr count;
      for j = i to (limit - 1) / i do
        composite.(i * j) <- true
      done
    end
  done;
  Array.sub primes 0 !count

let odd_primes = Array.length small_primes - 1

(* Newton's step [x <- x * (2 - p * x)] doubles the low bits in which
   [x] is p's inverse; [x = p] has three (p * p = 1 mod 8 for odd p),
   so five steps give 96 >= 63.  OCaml's [int] wraps modulo 2^63. *)
let inverse p =
  let x = ref p in
  for _ = 1 to 5 do
    x := !x * (2 - (p * !x))
  done;
  !x

let prime_inv = Array.init odd_primes (fun i -> inverse small_primes.(i + 1))

let prime_lim =
  Array.init odd_primes (fun i -> (max_int / small_primes.(i + 1)) + min_int)

let prime_sq =
  Array.init odd_primes (fun i -> small_primes.(i + 1) * small_primes.(i + 1))

(** Same value, via factorisation: phi(k) = k * prod (1 - 1/p).  The
    candidates are 2, then the odd table primes in order, then odd
    numbers from 1023, each tried while its square is at most the
    cofactor.  A composite candidate never divides: its prime factors
    are already divided out.  [result] stays divisible by every prime
    still in [n], so dividing it by [p] is exact too. *)
let phi_fast k =
  if k <= 0 then invalid_arg "Euler.phi_fast: k must be positive";
  (* Local names keep the tables in registers; read through the module
     block, each step reloads them. *)
  let sq = prime_sq and inv = prime_inv and lim = prime_lim in
  let n = ref k and result = ref k in
  if 4 <= k && k land 1 = 0 then begin
    n := k lsr 1;
    while !n land 1 = 0 do
      n := !n lsr 1
    done;
    result := k lsr 1
  end;
  (* [i] < [odd_primes] bounds every unchecked read below. *)
  let i = ref 0 in
  while !i < odd_primes && Array.unsafe_get sq !i <= !n do
    let inv = Array.unsafe_get inv !i and lim = Array.unsafe_get lim !i in
    let q = !n * inv in
    if q + min_int <= lim then begin
      n := q;
      let q = ref (q * inv) in
      while !q + min_int <= lim do
        n := !q;
        q := !q * inv
      done;
      result := !result * inv * (Array.unsafe_get small_primes (!i + 1) - 1)
    end;
    incr i
  done;
  if !i = odd_primes then begin
    let p = ref (small_primes.(odd_primes) + 2) in
    while !p * !p <= !n do
      if !n mod !p = 0 then begin
        while !n mod !p = 0 do
          n := !n / !p
        done;
        result := !result / !p * (!p - 1)
      end;
      p := !p + 2
    done
  end;
  if !n > 1 then result := !result / !n * (!n - 1);
  !result

(** Virtual cost of the naive [phi k]. *)
let phi_cost k : Repro_util.Cost.t =
  if k <= 1 then Repro_util.Cost.make 10 ~alloc:16
  else begin
    let candidates = k - 1 in
    let gcd_steps = 0.843 *. log (float_of_int k) in
    let cycles_per_elem =
      int_of_float (Float.round (gcd_steps *. float_of_int gcd_step_cycles))
      + elem_overhead_cycles
    in
    Repro_util.Cost.make (candidates * cycles_per_elem)
      ~alloc:(candidates * elem_alloc_bytes)
  end

(** Cost of naive phi summed over a chunk. *)
let chunk_cost ks =
  List.fold_left (fun acc k -> Repro_util.Cost.add acc (phi_cost k)) Repro_util.Cost.zero ks

(** Sum of [phi k] for [k] in [[lo..hi]], allocating nothing. *)
let sum_phi lo hi =
  let acc = ref 0 in
  for k = lo to hi do
    acc := !acc + phi_fast k
  done;
  !acc

(** Sequential reference: sum of [phi k] for [k] in [[1..n]]. *)
let sum_euler_ref n = sum_phi 1 n

(** Total naive-kernel cycles for problem size [n] (used by speedup
    normalisation and calibration). *)
let total_cycles n =
  let acc = ref 0 in
  for k = 1 to n do
    acc := !acc + (phi_cost k).Repro_util.Cost.cycles
  done;
  !acc
