(** parfib: the classic GpH fine-granularity stress test — every call
    above the threshold sparks its left branch, so spark counts grow
    exponentially as the threshold drops.  Computes nfib (the naive
    call count), which the caller compares with {!reference}. *)

(** The value every variant must compute. *)
val reference : int -> int

(** GpH parfib.  @raise Invalid_argument if [threshold < 1]. *)
val gph : n:int -> threshold:int -> unit -> int

(** Eden: unfold the call tree to [depth], farm the sub-trees out.
    @raise Invalid_argument when the division would reach below
    nfib 2. *)
val eden : n:int -> depth:int -> unit -> int
