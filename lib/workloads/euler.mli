(** Euler's totient: reference implementations and the cost model of
    the paper's naive Haskell kernel
    ([phi n = length (filter (relprime n) [1..n-1])]).
    {!phi_naive} is the literal algorithm (tests, small runs);
    {!phi_fast} computes the same value by trial division by primes;
    {!phi_cost} charges the naive kernel's virtual cost either way. *)

(** The paper's literal kernel.  @raise Invalid_argument if [k <= 0]. *)
val phi_naive : int -> int

(** Same value via factorisation: trial division by the 172 primes
    below 2{^10}, then, for a cofactor of at least 1023{^2} (only when
    [k] >= 2{^20}), by odd candidates from 1023.  A table prime costs
    no hardware division: 2 comes off with shifts, and an odd [p] is
    tested and divided out by multiplying with its inverse modulo
    2{^63}, exact for every 0 <= [k] <= [max_int].  Only the odd
    candidates past the table and, at most once per [k], a leftover
    prime factor divide.  Allocates nothing.
    @raise Invalid_argument if [k <= 0]. *)
val phi_fast : int -> int

(** Virtual cost of the naive [phi k]. *)
val phi_cost : int -> Repro_util.Cost.t

(** Naive cost summed over a chunk. *)
val chunk_cost : int list -> Repro_util.Cost.t

(** [sum_phi lo hi]: sum of [phi_fast k], k in [lo..hi]; allocates
    nothing. *)
val sum_phi : int -> int -> int

(** Sequential reference: sum of [phi k], k in [1..n]. *)
val sum_euler_ref : int -> int

(** Total naive-kernel cycles for size [n]. *)
val total_cycles : int -> int
