(** The executor's lock-free protocols as model-checking scenarios,
    plus deliberately broken mutants the checker must catch.

    Four protocol families, matching the paper's executor design:

    - {b Chase–Lev deque} (Sec. IV-A.2): push/pop/steal consume every
      element exactly once even when the owner's pop races a steal for
      the last element.  The real {!Repro_deque.Ws_deque} code is
      instantiated with the tracing shim — the checker explores the
      production algorithm, not a model of it.
    - {b Future claim} (eager black-holing, Sec. IV-A.3): the
      Todo→Running CAS makes claiming atomic with starting evaluation,
      so two forcers plus a stealing worker evaluate the body exactly
      once; forcers help run queued sparks while waiting.  Again the
      real {!Repro_exec.Future} functor, paired with a deterministic
      model pool.
    - {b Pool park/unpark handshake}: a distilled model of
      [Pool.park]/[Pool.signal_work] — announce sleeper, snapshot the
      wake generation, re-check, wait on [tasks or generation change].
      The mutant that re-checks {e before} announcing loses the wakeup
      and deadlocks, which the checker reports with the interleaving.
    - {b SPSC ring} (the shm transport's frame handshake): the real
      {!Repro_dist.Shm_ring.Spsc} functor over traced control words —
      write the slot {e then} publish the tail; observe, read, {e then}
      release.  Explored at capacity 1 (every push wraps and waits on
      backpressure) and capacity 2 (producer and consumer overlap).
      The mutant that publishes the tail before the slot holds the
      value hands the consumer a stale slot — the exact reordering the
      production ring's fences forbid.

    The mutants are distilled (small named cells) so their violation
    traces read as a story. *)

module D = Repro_deque.Ws_deque.Make (Sched.Atomic)

exception Boom

type expectation = Must_pass | Must_fail

type config = {
  cname : string;
  descr : string;
  expect : expectation;
  scenario : unit -> (string * (unit -> unit)) list * (unit -> unit);
}

let run ?on_trace (c : config) =
  Sched.check ?on_trace ~name:c.cname c.scenario

let verdict (c : config) (r : Sched.result) =
  match (c.expect, r) with
  | Must_pass, Sched.Pass _ | Must_fail, Sched.Fail _ -> true
  | Must_pass, Sched.Fail _ | Must_fail, Sched.Pass _ -> false

(* ------------------------------------------------------------------ *)
(* Chase–Lev deque                                                     *)
(* ------------------------------------------------------------------ *)

let pp_consumed got =
  Printf.sprintf "[%s]" (String.concat "; " (List.map string_of_int got))

(* Owner pops toward empty while a thief steals: the last element is
   decided by the CAS race on [top]; nothing may be lost or duplicated. *)
let deque_owner_vs_thief () =
  let q = D.create () in
  D.push q 1;
  D.push q 2;
  let popped = ref [] in
  let stolen = ref None in
  ( [
      ( "owner",
        fun () ->
          (match D.pop q with Some v -> popped := v :: !popped | None -> ());
          match D.pop q with Some v -> popped := v :: !popped | None -> () );
      ("thief", fun () -> stolen := D.steal q);
    ],
    fun () ->
      let got =
        List.sort compare
          (!popped @ Option.to_list !stolen @ D.drain q)
      in
      if got <> [ 1; 2 ] then
        failwith
          (Printf.sprintf "elements consumed %s, want each of 1,2 exactly once"
             (pp_consumed got)) )

(* Two thieves racing each other and the owner (who also pushes mid-run,
   exercising the bottom/top protocol from both ends). *)
let deque_two_thieves () =
  let q = D.create () in
  D.push q 1;
  D.push q 2;
  let po = ref None and s1 = ref None and s2 = ref None in
  ( [
      ( "owner",
        fun () ->
          D.push q 3;
          po := D.pop q );
      ("thief1", fun () -> s1 := D.steal q);
      ("thief2", fun () -> s2 := D.steal q);
    ],
    fun () ->
      let got =
        List.sort compare
          (List.concat_map Option.to_list [ !po; !s1; !s2 ] @ D.drain q)
      in
      if got <> [ 1; 2; 3 ] then
        failwith
          (Printf.sprintf
             "elements consumed %s, want each of 1,2,3 exactly once"
             (pp_consumed got)) )

(* Mutant: a distilled deque whose owner takes the LAST element without
   racing the CAS on [top] — the exact window Chase–Lev's pop closes.
   A thief that read [top] before the owner's decrement of [bottom]
   consumes the same element again. *)
let deque_missing_cas_mutant () =
  let top = Sched.Atomic.make 0 in
  let bottom = Sched.Atomic.make 1 in
  let taken = Sched.Atomic.make 0 in
  Sched.set_name top "top";
  Sched.set_name bottom "bottom";
  Sched.set_name taken "taken";
  List.iter
    (fun c -> Sched.set_printer c string_of_int)
    [ top; bottom; taken ];
  let pop () =
    let b = Sched.Atomic.get bottom - 1 in
    Sched.Atomic.set bottom b;
    let t = Sched.Atomic.get top in
    if b - t >= 0 then
      (* BUG: last element taken with no compare_and_set on top *)
      Sched.Atomic.incr taken
    else Sched.Atomic.set bottom t
  in
  let steal () =
    let t = Sched.Atomic.get top in
    let b = Sched.Atomic.get bottom in
    if b - t > 0 then
      if Sched.Atomic.compare_and_set top t (t + 1) then
        Sched.Atomic.incr taken
  in
  ( [ ("owner", pop); ("thief", steal) ],
    fun () ->
      let n = Sched.Atomic.get taken in
      if n <> 1 then
        failwith
          (Printf.sprintf "single element consumed %d times (want 1)" n) )

(* ------------------------------------------------------------------ *)
(* Future claim protocol (eager black-holing)                          *)
(* ------------------------------------------------------------------ *)

(* Deterministic model pool for the Future functor: a traced atomic
   holding the runner queue, help = CAS-pop + run, and idle_wait blocks
   the simulated thread on the future's completion predicate. *)
module type MODEL_POOL = sig
  include Repro_exec.Future.POOL_BACKEND with type ctx = unit

  val help_all : unit -> unit
end

let model_pool () : (module MODEL_POOL) =
  let queue : (unit -> unit) list Sched.Atomic.t = Sched.Atomic.make [] in
  Sched.set_name queue "runq";
  Sched.set_printer queue (fun q ->
      Printf.sprintf "<%d runner(s)>" (List.length q));
  (module struct
    type ctx = unit

    let current () = Some ()

    let push () task =
      let rec go () =
        let q = Sched.Atomic.get queue in
        if not (Sched.Atomic.compare_and_set queue q (task :: q)) then go ()
      in
      go ()

    let help () =
      let rec go () =
        match Sched.Atomic.get queue with
        | [] -> false
        | task :: rest as q ->
            if Sched.Atomic.compare_and_set queue q rest then begin
              task ();
              true
            end
            else go ()
      in
      go ()

    let help_all () = while help () do () done
    let note_run () = ()
    let note_fizzle () = ()

    (* trace hooks: the model pool records nothing *)
    let note_eval_begin () = ()
    let note_eval_end () = ()
    let note_force () = ()

    let idle_wait done_ idle =
      Sched.wait_until done_;
      idle
  end)

(* Two forcers race a stealing worker for one sparked future: the
   Todo→Running CAS must admit exactly one evaluation, and both forcers
   must observe the value. *)
let future_exactly_once () =
  let module P = (val model_pool ()) in
  let module F = Repro_exec.Future.Make (Sched.Atomic) (P) in
  let evals = Sched.Atomic.make 0 in
  Sched.set_name evals "evals";
  Sched.set_printer evals string_of_int;
  let fut =
    F.spark (fun () ->
        Sched.Atomic.incr evals;
        42)
  in
  let r1 = ref 0 and r2 = ref 0 in
  ( [
      ("forcer1", fun () -> r1 := F.force fut);
      ("forcer2", fun () -> r2 := F.force fut);
      ("worker", fun () -> ignore (P.help ()));
    ],
    fun () ->
      let e = Sched.Atomic.get evals in
      if e <> 1 then
        failwith (Printf.sprintf "body evaluated %d times (want exactly 1)" e);
      if !r1 <> 42 || !r2 <> 42 then
        failwith
          (Printf.sprintf "forcers observed %d and %d (want 42)" !r1 !r2) )

(* A forcer needing two sparked futures helps run queued sparks while
   the worker holds one of them Running. *)
let future_help_while_waiting () =
  let module P = (val model_pool ()) in
  let module F = Repro_exec.Future.Make (Sched.Atomic) (P) in
  let e1 = Sched.Atomic.make 0 and e2 = Sched.Atomic.make 0 in
  Sched.set_name e1 "evals1";
  Sched.set_name e2 "evals2";
  let f1 =
    F.spark (fun () ->
        Sched.Atomic.incr e1;
        1)
  in
  let f2 =
    F.spark (fun () ->
        Sched.Atomic.incr e2;
        2)
  in
  let r = ref 0 in
  ( [
      ("forcer", fun () -> r := F.force f1 + F.force f2);
      ("worker", fun () -> P.help_all ());
    ],
    fun () ->
      if !r <> 3 then failwith (Printf.sprintf "forcer computed %d, want 3" !r);
      let a = Sched.Atomic.get e1 and b = Sched.Atomic.get e2 in
      if a <> 1 || b <> 1 then
        failwith
          (Printf.sprintf "bodies evaluated %d and %d times (want 1 and 1)" a b)
  )

(* An exception raised by the sparked body must surface wherever the
   future is forced, even when a stealing worker ran the body. *)
let future_exception () =
  let module P = (val model_pool ()) in
  let module F = Repro_exec.Future.Make (Sched.Atomic) (P) in
  let fut = F.spark (fun () : int -> raise Boom) in
  let ok = ref false in
  ( [
      ( "forcer",
        fun () ->
          match F.force fut with
          | _ -> ()
          | exception Boom -> ok := true );
      ("worker", fun () -> ignore (P.help ()));
    ],
    fun () ->
      if not !ok then failwith "Boom did not propagate to the forcer" )

(* Mutant: lazy black-holing — claim by plain read-then-write instead
   of CAS (the simulator's unsynchronised window; the paper's Sec.
   IV-A.3 discussion of duplicate evaluation).  Two forcers can both
   read Todo before either writes Running and evaluate twice; the race
   detector additionally flags the unordered writes to [state]. *)
let future_lazy_blackhole_mutant () =
  let state = Sched.Atomic.make `Todo in
  let evals = Sched.Atomic.make 0 in
  Sched.set_name state "state";
  Sched.set_printer state (function
    | `Todo -> "Todo"
    | `Running -> "Running"
    | `Done -> "Done");
  Sched.set_name evals "evals";
  Sched.set_printer evals string_of_int;
  let claim () =
    match Sched.Atomic.get state with
    | `Todo ->
        (* BUG: the read above and this write are not one atomic step *)
        Sched.Atomic.set state `Running;
        Sched.Atomic.incr evals;
        Sched.Atomic.set state `Done
    | `Running | `Done -> ()
  in
  ( [ ("forcer1", claim); ("forcer2", claim) ],
    fun () ->
      let e = Sched.Atomic.get evals in
      if e <> 1 then
        failwith (Printf.sprintf "body evaluated %d times (want exactly 1)" e)
  )

(* ------------------------------------------------------------------ *)
(* Pool park/unpark handshake                                          *)
(* ------------------------------------------------------------------ *)

(* Distilled [Pool.park] / [Pool.signal_work]: the worker announces
   itself a sleeper, snapshots the wake generation, re-checks for work,
   and waits on [work present or generation changed]; the pusher makes
   work visible first, then wakes if it sees a sleeper.  Every
   interleaving must end with the task consumed. *)
let pool_handshake () =
  let tasks = Sched.Atomic.make 0 in
  let sleepers = Sched.Atomic.make 0 in
  let wake_gen = Sched.Atomic.make 0 in
  let taken = Sched.Atomic.make 0 in
  Sched.set_name tasks "tasks";
  Sched.set_name sleepers "sleepers";
  Sched.set_name wake_gen "wake_gen";
  Sched.set_name taken "taken";
  List.iter
    (fun c -> Sched.set_printer c string_of_int)
    [ tasks; sleepers; wake_gen; taken ];
  let rec take () =
    let n = Sched.Atomic.get tasks in
    if n > 0 then begin
      if Sched.Atomic.compare_and_set tasks n (n - 1) then
        Sched.Atomic.incr taken
      else take ()
    end
    else begin
      Sched.Atomic.incr sleepers;
      let g = Sched.Atomic.get wake_gen in
      (* Final re-check *after* announcing the sleeper, as Pool.park *)
      if Sched.Atomic.get tasks = 0 then
        Sched.wait_until (fun () ->
            Sched.Atomic.get tasks > 0 || Sched.Atomic.get wake_gen <> g);
      Sched.Atomic.decr sleepers;
      take ()
    end
  in
  let pusher () =
    Sched.Atomic.incr tasks;
    if Sched.Atomic.get sleepers > 0 then Sched.Atomic.incr wake_gen
  in
  ( [ ("worker", take); ("pusher", pusher) ],
    fun () ->
      let k = Sched.Atomic.get taken in
      if k <> 1 then failwith (Printf.sprintf "task taken %d times (want 1)" k)
  )

(* Mutant: check-then-park — the worker re-checks for work *before*
   announcing itself as a sleeper and waits on a wake flag only.  The
   pusher can read [sleepers = 0] in the window between the worker's
   check and its announcement, skip the wake, and the worker sleeps
   forever on a task that is already there: the classic lost wakeup,
   reported as a deadlock. *)
let pool_lost_wakeup_mutant () =
  let tasks = Sched.Atomic.make 0 in
  let sleepers = Sched.Atomic.make 0 in
  let woken = Sched.Atomic.make 0 in
  let taken = Sched.Atomic.make 0 in
  Sched.set_name tasks "tasks";
  Sched.set_name sleepers "sleepers";
  Sched.set_name woken "woken";
  Sched.set_name taken "taken";
  List.iter
    (fun c -> Sched.set_printer c string_of_int)
    [ tasks; sleepers; woken; taken ];
  let worker () =
    if Sched.Atomic.get tasks = 0 then begin
      (* BUG: sleeper announced after the emptiness check; wait ignores
         the task count *)
      Sched.Atomic.incr sleepers;
      Sched.wait_until (fun () -> Sched.Atomic.get woken > 0);
      Sched.Atomic.decr sleepers
    end;
    let n = Sched.Atomic.get tasks in
    if n > 0 then
      if Sched.Atomic.compare_and_set tasks n (n - 1) then
        Sched.Atomic.incr taken
  in
  let pusher () =
    Sched.Atomic.incr tasks;
    if Sched.Atomic.get sleepers > 0 then Sched.Atomic.incr woken
  in
  ( [ ("worker", worker); ("pusher", pusher) ],
    fun () ->
      let k = Sched.Atomic.get taken in
      if k <> 1 then failwith (Printf.sprintf "task taken %d times (want 1)" k)
  )

(* ------------------------------------------------------------------ *)
(* SPSC ring (shm transport frame handshake)                           *)
(* ------------------------------------------------------------------ *)

(* The production handshake itself: [Shm_ring]'s [Spsc] functor
   instantiated with traced cells as the control words and a plain
   array as the (unfenced) slot storage — exactly the production
   shape, where the data frames are plain mapped memory and only
   head/tail are control words. *)
module Spsc_word = struct
  type t = int Sched.Atomic.t

  let load = Sched.Atomic.get
  let store = Sched.Atomic.set
end

module Ring = Repro_dist.Shm_ring.Spsc (Spsc_word)

let make_ring cap =
  let tail = Sched.Atomic.make 0 and head = Sched.Atomic.make 0 in
  Sched.set_name tail "tail";
  Sched.set_name head "head";
  List.iter (fun c -> Sched.set_printer c string_of_int) [ tail; head ];
  let slots = Array.make cap 0 in
  Ring.create ~cap ~tail ~head ~get:(Array.get slots) ~set:(Array.set slots)

(* Blocking in SPSC terms: each side waits (read-only predicate, as
   [wait_until] requires) until its operation cannot fail — sound
   because it is the only pusher resp. popper. *)
let push_block r v =
  Sched.wait_until (fun () -> Ring.length r < r.Ring.cap);
  if not (Ring.try_push r v) then failwith "push failed below capacity"

let pop_block r =
  Sched.wait_until (fun () -> Ring.length r > 0);
  match Ring.try_pop r with
  | Some v -> v
  | None -> failwith "pop failed on non-empty ring"

let spsc_scenario ~cap ~values () =
  let r = make_ring cap in
  let got = ref [] and ngot = ref 0 in
  let record v =
    got := v :: !got;
    incr ngot
  in
  ( [
      ("producer", fun () -> List.iter (fun v -> push_block r v) values);
      ( "consumer",
        fun () ->
          (* eager probe that may catch the ring still empty: keeps
             the schedule genuinely branching even at capacity 1,
             where the blocking waits otherwise force one alternation *)
          (match Ring.try_pop r with Some v -> record v | None -> ());
          while !ngot < List.length values do
            record (pop_block r)
          done );
    ],
    fun () ->
      let got = List.rev !got in
      if got <> values then
        failwith
          (Printf.sprintf "consumed %s, want %s in order" (pp_consumed got)
             (pp_consumed values));
      if Ring.length r <> 0 then failwith "ring not empty at the end" )

(* cap 1: the cursors lap the ring on every element, so each push
   waits out backpressure and each slot index is reused. *)
let spsc_wrap () = spsc_scenario ~cap:1 ~values:[ 1; 2; 3 ] ()

(* cap 2: producer and consumer genuinely overlap inside the ring. *)
let spsc_overlap () = spsc_scenario ~cap:2 ~values:[ 1; 2; 3 ] ()

(* Mutant: the push publishes the new tail *before* the slot holds the
   value.  A consumer scheduled into that window observes the bumped
   tail, reads the stale slot, and hands out a value that was never
   pushed — the reordering [Shm_ring.write_frame]'s
   publish-after-write discipline (and its fence) forbids. *)
let spsc_publish_before_write_mutant () =
  let cap = 2 in
  let tail = Sched.Atomic.make 0 and head = Sched.Atomic.make 0 in
  let slots = Array.init cap (fun _ -> Sched.Atomic.make 0) in
  Sched.set_name tail "tail";
  Sched.set_name head "head";
  Array.iteri (fun i c -> Sched.set_name c (Printf.sprintf "slot%d" i)) slots;
  List.iter
    (fun c -> Sched.set_printer c string_of_int)
    (tail :: head :: Array.to_list slots);
  let push v =
    let t = Sched.Atomic.get tail in
    (* BUG: tail published first; the slot write races the consumer *)
    Sched.Atomic.set tail (t + 1);
    Sched.Atomic.set slots.(t mod cap) v
  in
  let pop_block () =
    Sched.wait_until
      (fun () -> Sched.Atomic.get tail - Sched.Atomic.get head > 0);
    let h = Sched.Atomic.get head in
    let v = Sched.Atomic.get slots.(h mod cap) in
    Sched.Atomic.set head (h + 1);
    v
  in
  let got = ref [] in
  ( [
      ( "producer",
        fun () ->
          push 1;
          push 2 );
      ( "consumer",
        fun () ->
          got := pop_block () :: !got;
          got := pop_block () :: !got );
    ],
    fun () ->
      let got = List.rev !got in
      if got <> [ 1; 2 ] then
        failwith
          (Printf.sprintf "consumed %s, want [1; 2] in order" (pp_consumed got))
  )

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let protocols =
  [
    {
      cname = "deque-owner-vs-thief";
      descr = "Chase-Lev: owner pops to empty racing one thief (real code)";
      expect = Must_pass;
      scenario = deque_owner_vs_thief;
    };
    {
      cname = "deque-two-thieves";
      descr = "Chase-Lev: owner push+pop racing two thieves (real code)";
      expect = Must_pass;
      scenario = deque_two_thieves;
    };
    {
      cname = "future-exactly-once";
      descr = "eager black-hole CAS: 2 forcers + stealing worker, 1 eval";
      expect = Must_pass;
      scenario = future_exactly_once;
    };
    {
      cname = "future-help-while-waiting";
      descr = "forcer helps run queued sparks while its future is Running";
      expect = Must_pass;
      scenario = future_help_while_waiting;
    };
    {
      cname = "future-exception";
      descr = "sparked body's exception surfaces at force";
      expect = Must_pass;
      scenario = future_exception;
    };
    {
      cname = "pool-park-handshake";
      descr = "sleeper/wake_gen park protocol: task always consumed";
      expect = Must_pass;
      scenario = pool_handshake;
    };
    {
      cname = "spsc-ring-wrap";
      descr = "shm SPSC ring at cap 1: FIFO through full wrap-around (real code)";
      expect = Must_pass;
      scenario = spsc_wrap;
    };
    {
      cname = "spsc-ring-overlap";
      descr = "shm SPSC ring at cap 2: producer/consumer overlap (real code)";
      expect = Must_pass;
      scenario = spsc_overlap;
    };
  ]

let mutants =
  [
    {
      cname = "mutant-deque-missing-cas";
      descr = "pop takes last element without CAS: duplicate consumption";
      expect = Must_fail;
      scenario = deque_missing_cas_mutant;
    };
    {
      cname = "mutant-lazy-blackhole";
      descr = "claim by read-then-write: double evaluation";
      expect = Must_fail;
      scenario = future_lazy_blackhole_mutant;
    };
    {
      cname = "mutant-lost-wakeup";
      descr = "check-then-park: pusher misses sleeper, worker deadlocks";
      expect = Must_fail;
      scenario = pool_lost_wakeup_mutant;
    };
    {
      cname = "mutant-spsc-publish-before-write";
      descr = "ring push publishes tail before the slot: stale read";
      expect = Must_fail;
      scenario = spsc_publish_before_write_mutant;
    };
  ]

let all = protocols @ mutants

let find name =
  match List.find_opt (fun c -> c.cname = name) all with
  | Some c -> c
  | None -> invalid_arg ("Protocols.find: unknown config " ^ name)
