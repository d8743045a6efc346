(** The five benchmarks, each defined once for both real backends.

    A workload states its name, sizes, inputs, sequential reference and
    leaf kernel once, then decomposes the same computation two ways:
    [run] sparks closures over one shared heap (GpH, on a {!Pool}), and
    [start]/[execute]/[finish] deal pure-data tasks to PEs with private
    heaps in one round (Eden, on [Repro_dist.Farm]).  Results are
    reduced to a deterministic [int] checksum; float checksums compare
    bit-for-bit, because both decompositions reduce in reference
    order. *)

(** A running task's line to the round's other tasks: [send k row]
    relays row [k] (serialised before [send] returns) to every other
    PE, around the PEs' ring, and [recv ()] blocks for the next row
    another task relayed, with its number.  On one PE [send] does
    nothing and [recv] fails.  apsp's [run] hands rows over the same
    way, through the shared heap.  The ring cannot deadlock while every
    task relays its rows in increasing order and each only after
    receiving every row before it: a PE then sends on its out-edge in
    increasing row number, and since it never forwards a row back to
    the row's origin, no cycle of blocked senders can form, even when
    an edge buffers less than one row. *)
type relay = { send : int -> float array -> unit; recv : unit -> int * float array }

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
  (** Coordinator state kept from [start] to [finish]. *)

  (** The round: [(state, tasks, pinned)].  When [pinned], task [i]
      must run on PE [i mod procs] (one block per PE, as in Eden's ring
      skeleton); otherwise tasks may go anywhere. *)
  val start : size:int -> procs:int -> state * task array * bool

  (** All of the round's results, in task order: the checksum. *)
  val finish : state -> result array -> int

  (** Runs on the PE; may keep process-local caches and talk to the
      round's other tasks through [relay], must not depend on
      coordinator state. *)
  val execute : size:int -> relay -> task -> result

  (** Bulk-result codec for the zero-[Marshal] data plane: [Some
      (enc, dec)] when results are float-dominated and worth shipping
      as raw frames (matmul and apsp row blocks, mandelbrot row
      totals).
      [dec (enc r)] must reproduce [r] bit-for-bit — integers encoded
      as floats must stay below 2{^53}.  [None] keeps the result on
      the marshalled control plane. *)
  val result_blob : ((result -> float array) * (float array -> result)) option
end

module Sumeuler : S
module Parfib : S
module Matmul : S
module Apsp_w : S

(** Every workload, in presentation order. *)
val all : (module S) list

val names : string list
val find : string -> (module S) option

(** Bit pattern of a float as an [int] (distinguishes checksums that
    printing would round together). *)
val float_bits : float -> int

(** One timed run on a fresh [cores]-domain pool: [ns] covers [W.run]
    alone, [spawn_ns] the pool's creation, [gc] the run's deltas summed
    over the pool's domains (brought up to date by an untimed minor
    collection on each side of the run, not counted as the run's),
    [counts] and [per_worker] the pool's scheduler counts after
    shutdown. *)
val sample :
  (module S) -> size:int -> cores:int -> Repro_metrics.Measure.sample
