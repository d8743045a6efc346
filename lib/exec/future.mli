(** Futures with eager-black-hole claiming (an atomic
    [Todo -> Running] CAS, the hardware analogue of paper
    Sec. IV-A.3's eager black-holing): a spark is evaluated at most
    once no matter how many workers pop, steal or force it.  Forcers
    waiting on a [Running] future help run other sparks instead of
    blocking.

    Functorised over the {!Repro_shim.Tatomic.S} atomics shim and a
    {!POOL_BACKEND}; the toplevel instance pairs the zero-cost [Real]
    shim with {!Pool}.  [lib/check] instantiates {!Make} with a tracing
    shim and a deterministic model pool to model-check the claim
    protocol exhaustively. *)

(** What the future layer needs from an executor.  [idle_wait done_ n]
    pauses a forcer that found nothing to help with until [done_ ()]
    may have changed, returning the new idle count. *)
module type POOL_BACKEND = sig
  type ctx

  val current : unit -> ctx option
  val push : ctx -> (unit -> unit) -> unit
  val help : ctx -> bool
  val note_run : ctx -> unit
  val note_fizzle : ctx -> unit

  (** Trace hooks (no-ops on untraced backends): a successful claim's
      evaluation span, and a forcer demanding an unfinished future. *)
  val note_eval_begin : ctx -> unit

  val note_eval_end : ctx -> unit
  val note_force : ctx -> unit
  val idle_wait : (unit -> bool) -> int -> int
end

module type S = sig
  type 'a t

  (** A deferred computation; not yet visible to any pool. *)
  val make : (unit -> 'a) -> 'a t

  (** Create a future and advertise it on the current worker's deque
      (when inside the pool); outside a pool it simply defers until
      forced. *)
  val spark : (unit -> 'a) -> 'a t

  (** Demand the value: evaluate it here if unclaimed, help the pool
      while someone else computes it, re-raise if it failed. *)
  val force : 'a t -> 'a

  val is_done : 'a t -> bool
end

module Make (A : Repro_shim.Tatomic.S) (P : POOL_BACKEND) : S

include S
