(** Log-bucketed HDR-style histogram buckets: bounded relative error,
    constant memory, O(1) record, mergeable snapshots.

    With [sub_bits = s] every power-of-two range is split into [2^s]
    sub-buckets, so a recorded value [v] lands in a bucket whose width
    is at most [v / 2^s]: any quantile estimated from bucket midpoints
    is within relative error [2^-s] of the exact rank statistic (and
    values below [2^s] are exact, bucket width 1).  Memory is fixed at
    [(63 - s) * 2^s] buckets regardless of range. *)

val default_sub_bits : int
(** 5: at most 3.125% relative error, 1856 buckets. *)

val nbuckets : sub_bits:int -> int

val index_of : sub_bits:int -> int -> int
(** Bucket index for a value; negative values clamp to bucket 0. *)

val lower_bound : sub_bits:int -> int -> int
(** Smallest value mapping to the bucket. *)

val upper_bound : sub_bits:int -> int -> int
(** Largest value mapping to the bucket. *)

(** Plain-data, Marshal-safe summary of a histogram: sparse
    [(index, count)] pairs in ascending index order plus the exact
    count / sum / min / max of recorded values. *)
type snapshot = {
  sub_bits : int;
  buckets : (int * int) list;
  count : int;
  sum : int;
  min_v : int;  (** [max_int] when empty *)
  max_v : int;  (** [min_int] when empty *)
}

val empty : ?sub_bits:int -> unit -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Bucket-wise sum.  Associative and commutative; merging the
    snapshots of two shards equals the snapshot of the merged value
    streams.  @raise Invalid_argument on mismatched [sub_bits]. *)

val quantile : snapshot -> float -> float
(** [quantile s q] estimates the [q]-quantile ([0. <= q <= 1.]) as the
    midpoint of the bucket holding the rank-[ceil (q * count)] value;
    relative error is bounded by [2^-sub_bits].  [0.] when empty. *)

val mean : snapshot -> float
val to_json : snapshot -> Repro_util.Json_out.t

(** Dense single-writer histogram for tests and benchmarks (the
    registry's per-domain shards live in {!Metrics}). *)
module Local : sig
  type t

  val create : ?sub_bits:int -> unit -> t
  val observe : t -> int -> unit
  val snapshot : t -> snapshot
end
