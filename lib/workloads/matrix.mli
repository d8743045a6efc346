(** Dense float matrices: reference multiply, blocked kernels and the
    virtual cost model of the paper's Haskell code.

    [Real] payloads actually compute (callers compare with {!mul_ref});
    [Synthetic] payloads charge exactly the same virtual cost without
    the floating-point work, keeping the paper's 2000x2000 sweeps
    cheap.  Virtual-time behaviour is identical by construction. *)

type payload = Real | Synthetic

type mat = float array array

val make : int -> (int -> int -> float) -> mat
val zero : int -> mat

(** [create rows n]: [rows] fresh rows of [n] floats, contents
    unspecified. *)
val create : int -> int -> mat

(** Deterministic pseudo-random [n x n] matrix, entries in [0,1):
    [fill_rows] of all its rows. *)
val random : seed:int -> int -> mat

(** [fill_rows m ~seed ~lo] sets row [r] of [m] to row [lo + r] of
    [random ~seed n], [n] the rows' length, bit for bit: the draws of
    the rows before [lo] are skipped, not made. *)
val fill_rows : mat -> seed:int -> lo:int -> unit

(** [fill_cols m ~seed ~lo] sets row [r] of [m] to column [lo + r] of
    [random ~seed n] (row [lo + r] of its transpose), [n] the rows'
    length, bit for bit. *)
val fill_cols : mat -> seed:int -> lo:int -> unit

(** Sum of every entry, row by row in index order. *)
val checksum : mat -> float

(** [checksum_from acc m] is [acc] plus every entry of [m] in
    {!checksum}'s order, so folding it over the blocks of a matrix's
    rows gives the whole matrix's checksum bit for bit. *)
val checksum_from : float -> mat -> float

(** Sequential reference multiply. *)
val mul_ref : mat -> mat -> mat

(** [mul_rows ~into a bt] sets row [r] of [into] to row [r] of [a*b],
    for every row of [a] (any rows of the left operand), where [bt] is
    the transpose of the square [b]; every element bit-identical to
    {!mul_ref}'s for finite entries: the one product kernel of both
    real backends.
    @raise Invalid_argument unless [into] has a row per row of [a] and
    every row of [a], [bt] and [into] has [Array.length bt] entries. *)
val mul_rows : into:mat -> mat -> mat -> unit

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

(** Cost of producing a [rows x cols] piece of an [n]-dim multiply. *)
val block_cost : n:int -> rows:int -> cols:int -> Repro_util.Cost.t

(** Cost of one [m x m] block multiply-accumulate. *)
val mac_block_cost : m:int -> Repro_util.Cost.t

val resident : n:int -> int
