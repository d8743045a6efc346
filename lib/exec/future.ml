(** Futures with eager-black-hole semantics on real domains.

    A future is an atomic state cell.  Whoever wants its value —
    the worker that pops the spark, a thief that stole it, or the
    parent thread forcing it — first CASes [Todo _ -> Running].  The
    CAS is the hardware analogue of the paper's {e eager black-holing}
    (Sec. IV-A.3): claiming is atomic with starting evaluation, so a
    stolen spark is never evaluated twice and no duplicate work can
    exist even transiently (the simulator's lazy-black-holing window
    does not exist here at all).

    A forcer that finds the cell [Running] does not block the OS
    thread: it {e helps} — runs other pending sparks from the pool —
    and falls back to [Domain.cpu_relax]/micro-sleep backoff when the
    pool is dry, which keeps oversubscribed runs (more domains than
    hardware threads) live.

    The module is a functor over the {!Repro_shim.Tatomic.S} atomics
    shim and a {!POOL_BACKEND} (the executor the futures advertise
    their sparks to).  The toplevel instance pairs the zero-cost [Real]
    shim with {!Pool}; [lib/check] pairs the tracing shim with a
    deterministic model pool and model-checks the claim protocol —
    including the lazy-black-holing mutant this CAS exists to rule
    out. *)

(** What the future layer needs from an executor.  [idle_wait done_ n]
    is called when a forcer found nothing to help with; it must pause
    until [done_ ()] may have changed (real pools spin/sleep; the
    model checker blocks the simulated thread on [done_]). *)
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

  val make : (unit -> 'a) -> 'a t
  val spark : (unit -> 'a) -> 'a t
  val force : 'a t -> 'a
  val is_done : 'a t -> bool
end

module Make (A : Repro_shim.Tatomic.S) (P : POOL_BACKEND) = struct
  type 'a state =
    | Todo of (unit -> 'a)
    | Running
    | Done of 'a
    | Failed of exn

  type 'a t = 'a state A.t

  let make f = A.make (Todo f)

  let is_done fut =
    match A.get fut with Done _ | Failed _ -> true | _ -> false

  (* Claim and evaluate if still unclaimed; [true] iff this call
     performed the evaluation.  The eval span (claim-to-completion)
     is the tracer's spark-granularity instrument; outside a pool the
     hooks are skipped entirely. *)
  let try_claim fut =
    match A.get fut with
    | Todo f as prev ->
        if A.compare_and_set fut prev Running then begin
          let ctx = P.current () in
          (match ctx with Some c -> P.note_eval_begin c | None -> ());
          (match f () with
          | v -> A.set fut (Done v)
          | exception e -> A.set fut (Failed e));
          (match ctx with Some c -> P.note_eval_end c | None -> ());
          true
        end
        else false
    | Running | Done _ | Failed _ -> false

  let try_run fut = ignore (try_claim fut)

  (** Create a future and, when running inside a pool, push a runner
      for it onto the current worker's deque.  Outside a pool the future
      is simply deferred until forced (sequential semantics — exactly
      GpH's "sparks may fizzle").  The runner reports run/fizzle to the
      pool's spark ledger. *)
  let spark f =
    let fut = make f in
    (match P.current () with
    | Some ctx ->
        P.push ctx (fun () ->
            let did_run = try_claim fut in
            match P.current () with
            | Some c -> if did_run then P.note_run c else P.note_fizzle c
            | None -> ())
    | None -> ());
    fut

  let rec wait_loop fut ctx idle =
    match A.get fut with
    | Done v -> v
    | Failed e -> raise e
    | Todo _ ->
        try_run fut;
        wait_loop fut ctx idle
    | Running ->
        let idle =
          match ctx with
          | Some c when P.help c -> 0
          | _ -> P.idle_wait (fun () -> is_done fut) idle
        in
        wait_loop fut ctx idle

  let force fut =
    match A.get fut with
    | Done v -> v
    | Failed e -> raise e
    | _ ->
        let ctx = P.current () in
        (match ctx with Some c -> P.note_force c | None -> ());
        wait_loop fut ctx 0
end

include
  Make
    (Repro_shim.Tatomic.Real)
    (struct
      type ctx = Pool.ctx

      let current = Pool.current
      let push = Pool.push
      let help = Pool.help
      let note_run = Pool.note_run
      let note_fizzle = Pool.note_fizzle
      let note_eval_begin = Pool.note_eval_begin
      let note_eval_end = Pool.note_eval_end
      let note_force = Pool.note_force

      (* nothing to help with and the producer still runs *)
      let idle_wait _is_done idle = Pool.backoff idle
    end)
