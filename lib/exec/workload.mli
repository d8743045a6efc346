(** Pure workloads wired to the real executor behind one signature:
    the simulator's benchmarks ([lib/workloads]) doing {e real} work on
    {e real} domains, with results reduced to a deterministic [int]
    checksum (float checksums compare bit-for-bit because the parallel
    kernels reduce in reference order). *)

module type S = sig
  val name : string

  (** What [size] means for this workload. *)
  val size_doc : string

  val default_size : int

  (** Small size for tests and CI smoke runs. *)
  val quick_size : int

  (** Parallel run; degrades to sequential outside a {!Pool}. *)
  val run : size:int -> unit -> int

  (** Sequential reference checksum (never sparks). *)
  val reference : size:int -> int
end

module Sumeuler : S
module Parfib_w : S
module Matmul : S
module Mandelbrot_w : S
module Apsp_w : S

(** Every wired workload, in presentation order. *)
val all : (module S) list

val names : string list
val find : string -> (module S) option

(** One timed run on a fresh [cores]-domain pool: [ns] covers [W.run]
    alone, [spawn_ns] the pool's creation, [gc] the calling domain's
    deltas over the run.  No counts or per-worker rows. *)
val sample :
  (module S) -> size:int -> cores:int -> Repro_metrics.Measure.sample
