(** Dense float matrices: reference multiply, blocked kernels and the
    virtual cost model of the paper's Haskell code.

    [Real] payloads actually compute (verified against {!mul_ref});
    [Synthetic] payloads charge exactly the same virtual cost without
    the floating-point work, keeping the paper's 2000x2000 sweeps
    cheap.  Virtual-time behaviour is identical by construction. *)

type payload = Real | Synthetic

type mat = float array array

val make : int -> (int -> int -> float) -> mat
val zero : int -> mat

(** Deterministic pseudo-random matrix, entries in [0,1). *)
val random : seed:int -> int -> mat

val checksum : mat -> float

(** Sequential reference multiply. *)
val mul_ref : mat -> mat -> mat
val transpose : mat -> mat

(** [mul_row a (transpose b) i] is a fresh row [i] of [a*b], every
    element bit-identical to {!mul_ref}'s for finite entries. *)
val mul_row : mat -> mat -> int -> float array

(** Compute the [bs x bs] result block at [(r0, c0)] into [out].
    Idempotent (pure assignment): safe under duplicate evaluation. *)
val mul_block : mat -> mat -> mat -> r0:int -> c0:int -> bs:int -> unit

(** One row segment of the product (row [i], columns
    [c0..c0+cols)); idempotent. *)
val mul_row_segment : mat -> mat -> mat -> i:int -> c0:int -> cols:int -> unit

(** Multiply-accumulate of square blocks: [c += a*b] (Cannon round). *)
val mac_block : mat -> mat -> mat -> unit

val sub_block : mat -> r0:int -> c0:int -> bs:int -> mat

(** {1 Cost model} *)

val elem_alloc_bytes : int

(** Cost of producing a [rows x cols] piece of an [n]-dim multiply. *)
val block_cost : n:int -> rows:int -> cols:int -> Repro_util.Cost.t

(** Cost of one [m x m] block multiply-accumulate. *)
val mac_block_cost : m:int -> Repro_util.Cost.t

val total_cycles : n:int -> int
val resident : n:int -> int
