(** Write-once promises with a lock-free waiter list — the fiber
    layer's synchronisation cell.

    A promise is a single atomic state word: [Pending waiters] until
    someone resolves it, then [Fulfilled v] or [Broken e] forever.
    Both sides race on that one word with CAS, which is what closes the
    classic lost-wakeup window between "I checked and it was pending"
    and "I parked":

    - {!add_waiter} CAS-conses the callback onto the pending list.  If
      the CAS loses to a resolver the retry observes the resolved state
      and runs the callback {e itself}, so registering against an
      already-resolved promise degenerates to an immediate call — the
      waiter never sleeps on a value that is already there.
    - {!try_fulfil}/{!try_break} CAS [Pending ws] to the resolved state
      and then run the captured waiters in registration order.  Exactly
      one resolver wins; the losers see the resolved state and report
      [false].

    Callbacks are [unit -> unit] thunks, invoked on whichever domain
    completes the race; the fiber layer wraps each continuation resume
    in {!once} so the resume survives being raced by a canceller (both
    paths may fire the thunk; the body runs exactly once).

    The module is a functor over the {!Repro_shim.Tatomic.S} atomics
    shim, so [lib/check] explores this exact code under its DPOR
    scheduler (see the [promise-*] protocol configurations); the
    toplevel instance is the zero-cost [Real] alias. *)

module type S = sig
  type 'a t

  val create : unit -> 'a t
  val of_value : 'a -> 'a t
  val peek : 'a t -> ('a, exn) result option
  val once : (unit -> unit) -> unit -> unit
  val add_waiter : 'a t -> (unit -> unit) -> unit
  val try_fulfil : 'a t -> 'a -> bool
  val try_break : 'a t -> exn -> bool
  val fulfil : 'a t -> 'a -> unit
  val break : 'a t -> exn -> unit
end

module Make (A : Repro_shim.Tatomic.S) = struct
  type 'a state =
    | Pending of (unit -> unit) list  (** waiters, most recently added first *)
    | Fulfilled of 'a
    | Broken of exn

  type 'a t = 'a state A.t

  let create () = A.make (Pending [])
  let of_value v = A.make (Fulfilled v)

  let peek p =
    match A.get p with
    | Fulfilled v -> Some (Ok v)
    | Broken e -> Some (Error e)
    | Pending _ -> None

  (* Exactly-once thunk: the CAS on [fired] decides the unique winner
     when several paths (normal wakeup, cancellation) race to run it. *)
  let once f =
    let fired = A.make false in
    fun () -> if A.compare_and_set fired false true then f ()

  let rec add_waiter p k =
    match A.get p with
    | Pending ws as prev ->
        if not (A.compare_and_set p prev (Pending (k :: ws))) then
          add_waiter p k
    | Fulfilled _ | Broken _ -> k ()

  (* Resolve to [st] and run the waiters captured by the winning CAS.
     Waiters added concurrently with the resolution either made it onto
     the list this CAS captured, or their add_waiter retry sees the
     resolved state and self-runs — nobody is stranded. *)
  let rec resolve p (st : 'a state) =
    match A.get p with
    | Pending ws as prev ->
        if A.compare_and_set p prev st then begin
          List.iter (fun k -> k ()) (List.rev ws);
          true
        end
        else resolve p st
    | Fulfilled _ | Broken _ -> false

  let try_fulfil p v = resolve p (Fulfilled v)
  let try_break p e = resolve p (Broken e)

  let fulfil p v =
    if not (try_fulfil p v) then
      invalid_arg "Promise.fulfil: promise already resolved"

  let break p e =
    if not (try_break p e) then
      invalid_arg "Promise.break: promise already resolved"
end

include Make (Repro_shim.Tatomic.Real)
