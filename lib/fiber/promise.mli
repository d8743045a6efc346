(** Write-once promises with a lock-free CAS waiter list.

    The cell the fiber runtime parks on: a waiter registered with
    {!add_waiter} is guaranteed to run exactly when the promise
    resolves — the CAS on the single state word means either the
    waiter's cons lands before the resolver's transition (the resolver
    runs it) or the waiter observes the resolved state and runs the
    callback itself.  [lib/check] model-checks this handshake
    exhaustively against the DPOR scheduler (configs [promise-*]),
    including the resume-before-park mutant this design rules out. *)

module type S = sig
  type 'a t

  val create : unit -> 'a t

  val of_value : 'a -> 'a t
  (** An already-fulfilled promise. *)

  val peek : 'a t -> ('a, exn) result option
  (** [None] while pending. *)

  val once : (unit -> unit) -> unit -> unit
  (** [once f] is a thunk that runs [f] on its first call and nothing
      on every later call, decided by a CAS — safe to hand to several
      racing wakers (fulfiller vs canceller). *)

  val add_waiter : 'a t -> (unit -> unit) -> unit
  (** Register a callback to run on resolution, in registration order.
      Runs it immediately (on the calling domain) if the promise is
      already resolved.  Callbacks must not raise. *)

  val try_fulfil : 'a t -> 'a -> bool
  (** [true] iff this call performed the transition; runs the waiters
      before returning. *)

  val try_break : 'a t -> exn -> bool

  val fulfil : 'a t -> 'a -> unit
  (** @raise Invalid_argument if already resolved. *)

  val break : 'a t -> exn -> unit
  (** @raise Invalid_argument if already resolved. *)
end

module Make (A : Repro_shim.Tatomic.S) : S

include S
