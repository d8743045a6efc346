(** Euler's totient: reference implementations and the cost model of
    the paper's naive Haskell kernel
    ([phi n = length (filter (relprime n) [1..n-1])]).
    {!phi_naive} is the literal algorithm (tests, small runs);
    {!phi_fast} computes the same value by factorisation; {!phi_cost}
    charges the naive kernel's virtual cost either way. *)

val elem_alloc_bytes : int

(** The paper's literal kernel.  @raise Invalid_argument if [k <= 0]. *)
val phi_naive : int -> int

(** Same value via trial-division factorisation, O(sqrt k). *)
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
