(** The five benchmarks, each defined once for both real backends.

    A workload states its name, sizes, inputs, sequential reference and
    leaf kernel once, then decomposes the same computation two ways:
    [run] sparks closures over one shared heap (GpH, on a {!Pool}), and
    [start]/[step]/[execute] deal pure-data tasks to PEs with private
    heaps in barrier rounds (Eden, on [Repro_dist.Farm]).  Results are
    reduced to a deterministic [int] checksum; float checksums compare
    bit-for-bit, because both decompositions reduce in reference
    order. *)

module type S = sig
  val name : string

  (** What [size] means for this workload. *)
  val size_doc : string

  val default_size : int

  (** Small size for tests and CI smoke runs. *)
  val quick_size : int

  (** Sequential reference checksum (never sparks). *)
  val reference : size:int -> int

  (** {2 Shared heap} *)

  (** Parallel run; degrades to sequential outside a {!Pool}. *)
  val run : size:int -> unit -> int

  (** {2 Private heaps} *)

  type task
  (** Pure data shipped to a PE ([Marshal] without closures). *)

  type result
  (** Fully-evaluated value shipped back. *)

  type state
  (** Coordinator state threaded between rounds. *)

  (** First round: [(state, tasks, pinned)].  When [pinned], task [i]
      must run on PE [i mod procs] (PE-resident state across rounds,
      as in Eden's ring skeleton); otherwise tasks may go anywhere. *)
  val start : size:int -> procs:int -> state * task array * bool

  (** Barrier: all of a round's results, in task order.  Either the
      final checksum or the next round. *)
  val step :
    state ->
    result array ->
    [ `Done of int | `Round of state * task array * bool ]

  (** Runs on the PE; may keep process-local caches, must not depend
      on coordinator state. *)
  val execute : size:int -> task -> result

  (** Bulk-result codec for the zero-[Marshal] data plane: [Some
      (enc, dec)] when results are float-dominated and worth shipping
      as raw frames (matmul row blocks, mandelbrot row totals).
      [dec (enc r)] must reproduce [r] bit-for-bit — integers encoded
      as floats must stay below 2{^53}.  [None] keeps the result on
      the marshalled control plane. *)
  val result_blob : ((result -> float array) * (float array -> result)) option
end

module Sumeuler : S
module Parfib : S
module Matmul : S
module Mandelbrot_w : S
module Apsp_w : S

(** Every workload, in presentation order. *)
val all : (module S) list

val names : string list
val find : string -> (module S) option

(** Bit pattern of a float as an [int] (distinguishes checksums that
    printing would round together). *)
val float_bits : float -> int

(** One timed run on a fresh [cores]-domain pool: [ns] covers [W.run]
    alone, [spawn_ns] the pool's creation, [gc] the calling domain's
    deltas over the run.  No counts or per-worker rows. *)
val sample :
  (module S) -> size:int -> cores:int -> Repro_metrics.Measure.sample
