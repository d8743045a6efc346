(** DPOR model-checking scheduler for the executor's lock-free
    protocols (dscheck-style; cf. Abdulla et al., "Optimal dynamic
    partial order reduction", and the systematic-testing harnesses used
    for the OCaml multicore runtime).

    A {e scenario} is a handful of simulated threads sharing state built
    from {!Atomic} — the tracing implementation of the
    {!Repro_shim.Tatomic.S} shim that [Ws_deque], [Future] and
    [Promise] are functorised over.  Every atomic operation a thread
    performs is an OCaml 5 effect: the thread suspends, the scheduler
    executes the operation, records it, and chooses which thread runs
    next.  The
    whole scenario is replayed once per schedule; schedules are
    enumerated depth-first with persistent-set style partial-order
    reduction — after each complete run, for every pair of dependent
    operations by different threads, a backtrack point is added that
    reverses their order, and exploration continues until no backtrack
    point is left.  Two operations are dependent iff they touch the
    same cell and at least one writes it, so commuting interleavings
    are explored once.

    Blocking is modelled by {!wait_until}: the thread is descheduled
    until its predicate holds.  If every live thread is blocked on a
    false predicate, the run is reported as a deadlock — which is
    exactly how a lost wakeup manifests.

    Violations (a thread or the final check raising, a deadlock, or an
    op-budget blow-up) abort exploration and return the full event
    trace of the offending interleaving. *)

module IntSet = Set.Make (Int)

exception Abandoned

(* ------------------------------------------------------------------ *)
(* Global scheduler state.  One exploration at a time (the test suite
   and CLI drive checks sequentially); not domain-safe by design.      *)
(* ------------------------------------------------------------------ *)

type mode =
  | Idle  (** outside any check: operations behave like plain atomics *)
  | Setup  (** scenario construction: executed directly, recorded as thread -1 *)
  | Running of int  (** thread [tid] executing: operations suspend via effects *)
  | Predicate  (** scheduler polling a wait predicate: silent direct execution *)
  | Final  (** final check: executed directly, recorded as thread -2 *)

let mode = ref Idle
let next_cell_id = ref 0
let trace_buf : Event.t list ref = ref [] (* newest first *)
let step_no = ref 0
let thread_names : (int, string) Hashtbl.t = Hashtbl.create 16

let name_of_tid tid =
  if tid = -1 then "<setup>"
  else if tid = -2 then "<final>"
  else match Hashtbl.find_opt thread_names tid with
    | Some n -> n
    | None -> Printf.sprintf "t%d" tid

let record ~tid ~loc ~loc_name ~kind ~repr =
  trace_buf :=
    {
      Event.step = !step_no;
      thread = tid;
      thread_name = name_of_tid tid;
      loc;
      loc_name;
      kind;
      repr;
    }
    :: !trace_buf

(* ------------------------------------------------------------------ *)
(* The tracing atomic cell and its effect                              *)
(* ------------------------------------------------------------------ *)

type 'a cell = {
  cid : int;
  mutable v : 'a;
  mutable cname : string;
  mutable printer : ('a -> string) option;
}

type op_info = { loc : int; loc_name : string }

type _ Effect.t +=
  | Op : op_info * (unit -> 'r * Event.kind * string) -> 'r Effect.t
  | Wait : (unit -> bool) -> unit Effect.t

(* Execute one primitive: suspend to the scheduler when a simulated
   thread performs it, run directly (recording or silently, by mode)
   otherwise. *)
let traced (c : _ cell) (do_op : unit -> 'r * Event.kind * string) : 'r =
  match !mode with
  | Running _ ->
      Effect.perform (Op ({ loc = c.cid; loc_name = c.cname }, do_op))
  | Setup ->
      let r, k, s = do_op () in
      record ~tid:(-1) ~loc:c.cid ~loc_name:c.cname ~kind:k ~repr:s;
      r
  | Final ->
      let r, k, s = do_op () in
      record ~tid:(-2) ~loc:c.cid ~loc_name:c.cname ~kind:k ~repr:s;
      r
  | Predicate | Idle ->
      let r, _, _ = do_op () in
      r

let pr c v = match c.printer with None -> None | Some p -> Some (p v)

let with_val c v base =
  match pr c v with None -> base | Some s -> base ^ " " ^ s

module Atomic = struct
  type 'a t = 'a cell

  let make v =
    let id = !next_cell_id in
    incr next_cell_id;
    let c = { cid = id; v; cname = Printf.sprintf "a%d" id; printer = None } in
    (* Creation is an initialising write for the race detector, but not
       a scheduling point: the cell is not shared until published. *)
    (match !mode with
    | Running tid ->
        record ~tid ~loc:c.cid ~loc_name:c.cname ~kind:Event.Make ~repr:"make"
    | Setup ->
        record ~tid:(-1) ~loc:c.cid ~loc_name:c.cname ~kind:Event.Make
          ~repr:"make"
    | _ -> ());
    c

  let get c =
    traced c (fun () -> (c.v, Event.Get, with_val c c.v "get ->"))

  let set c x =
    traced c (fun () ->
        c.v <- x;
        ((), Event.Set, with_val c x "set <-"))

  let exchange c x =
    traced c (fun () ->
        let old = c.v in
        c.v <- x;
        (old, Event.Exchange, with_val c x "exchange <-"))

  let compare_and_set c old nu =
    traced c (fun () ->
        if c.v == old then begin
          c.v <- nu;
          (true, Event.Cas true, with_val c nu "cas ok <-")
        end
        else (false, Event.Cas false, "cas fail"))

  let fetch_and_add c n =
    traced c (fun () ->
        let old = c.v in
        c.v <- old + n;
        (old, Event.Fetch_add, Printf.sprintf "fetch&add %+d -> %d" n c.v))

  let incr c = ignore (fetch_and_add c 1)
  let decr c = ignore (fetch_and_add c (-1))
end

module _ : Repro_shim.Tatomic.S = Atomic

let set_name (c : 'a Atomic.t) n =
  c.cname <- n;
  (* Rename the already-recorded creation event (setup names cells
     right after [make]), so traces are readable end to end. *)
  trace_buf :=
    List.map
      (fun (e : Event.t) ->
        if e.loc = c.cid then { e with loc_name = n } else e)
      !trace_buf
let set_printer (c : 'a Atomic.t) p = c.printer <- Some p

let wait_until pred =
  match !mode with
  | Running _ -> Effect.perform (Wait pred)
  | _ ->
      if not (pred ()) then
        failwith "Sched.wait_until outside a simulated thread: predicate false"

(* ------------------------------------------------------------------ *)
(* Threads                                                             *)
(* ------------------------------------------------------------------ *)

type pending = {
  exec : unit -> unit;  (** run the op, record it, continue to next suspension *)
  abort : unit -> unit;
}

type tstate =
  | Pending of pending
  | Blocked of { pred : unit -> bool; resume : unit -> unit; abort : unit -> unit }
  | Finished
  | Raised of exn

type thread = { tid : int; tname : string; mutable st : tstate }

let handler (t : thread) : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> t.st <- Finished);
    exnc = (fun e -> t.st <- Raised e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Op (info, do_op) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                t.st <-
                  Pending
                    {
                      exec =
                        (fun () ->
                          let r, kind, repr = do_op () in
                          record ~tid:t.tid ~loc:info.loc
                            ~loc_name:info.loc_name ~kind ~repr;
                          Effect.Deep.continue k r);
                      abort =
                        (fun () ->
                          try Effect.Deep.discontinue k Abandoned
                          with _ -> ());
                    })
        | Wait pred ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                t.st <-
                  Blocked
                    {
                      pred;
                      resume = (fun () -> Effect.Deep.continue k ());
                      abort =
                        (fun () ->
                          try Effect.Deep.discontinue k Abandoned
                          with _ -> ());
                    })
        | _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

(* One exploration-tree node per scheduler step of the current run:
   the choice taken, what was runnable, the dependency footprint of the
   executed op, and the DPOR backtrack/done sets that drive the DFS. *)
type node = {
  mutable chosen : int;
  mutable enabled : int list;
  mutable loc : int;  (* -1: no shared-memory footprint (wake step) *)
  mutable acc : Event.access;
  mutable backtrack : IntSet.t;
  mutable done_ : IntSet.t;
}

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable len : int }

  let create () = { a = [||]; len = 0 }
  let length v = v.len
  let get v i = v.a.(i)

  let push v x =
    if v.len = Array.length v.a then begin
      let cap = max 16 (2 * Array.length v.a) in
      let a = Array.make cap x in
      Array.blit v.a 0 a 0 v.len;
      v.a <- a
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  let truncate v n = v.len <- n
end

type stats = {
  name : string;
  interleavings : int;  (** complete executions explored *)
  events : int;  (** total operations executed across all of them *)
  max_depth : int;  (** longest execution, in scheduler steps *)
}

type violation = {
  vname : string;
  reason : string;
  trace : Event.t list;  (** the offending interleaving, oldest first *)
  after_interleavings : int;
}

type result = Pass of stats | Fail of violation

type run_status = Completed | Violated of string

let run_once ~max_steps ~(nodes : node Vec.t) scenario =
  trace_buf := [];
  step_no := 0;
  next_cell_id := 0;
  Hashtbl.reset thread_names;
  mode := Setup;
  let spec, final_check =
    match scenario () with
    | s -> mode := Idle; s
    | exception e ->
        mode := Idle;
        raise e
  in
  let threads =
    Array.of_list
      (List.mapi
         (fun i (tname, _) ->
           Hashtbl.replace thread_names i tname;
           { tid = i; tname; st = Finished })
         spec)
  in
  (* Launch every thread up to its first suspension point. *)
  List.iteri
    (fun i (_, body) ->
      let t = threads.(i) in
      mode := Running i;
      Effect.Deep.match_with body () (handler t);
      mode := Idle)
    spec;
  let enabled_tids () =
    Array.to_list threads
    |> List.filter_map (fun t ->
           match t.st with
           | Pending _ -> Some t.tid
           | Blocked b ->
               mode := Predicate;
               let ok = b.pred () in
               mode := Idle;
               if ok then Some t.tid else None
           | Finished | Raised _ -> None)
  in
  let raised_thread () =
    Array.to_list threads
    |> List.find_map (fun t ->
           match t.st with
           | Raised e when e != Abandoned -> Some (t.tname, e)
           | _ -> None)
  in
  let blocked_names () =
    Array.to_list threads
    |> List.filter_map (fun t ->
           match t.st with Blocked _ -> Some t.tname | _ -> None)
  in
  let rec loop depth =
    match raised_thread () with
    | Some (tname, e) ->
        Violated
          (Printf.sprintf "thread %s raised: %s" tname (Printexc.to_string e))
    | None ->
        if
          Array.for_all
            (fun t -> match t.st with Finished -> true | _ -> false)
            threads
        then begin
          mode := Final;
          match final_check () with
          | () ->
              mode := Idle;
              Completed
          | exception e ->
              mode := Idle;
              Violated
                (Printf.sprintf "final check failed: %s" (Printexc.to_string e))
        end
        else begin
          let enabled = enabled_tids () in
          if enabled = [] then
            Violated
              (Printf.sprintf
                 "deadlock: all live threads blocked waiting (%s) — lost \
                  wakeup"
                 (String.concat ", " (blocked_names ())))
          else if depth >= max_steps then
            Violated
              (Printf.sprintf
                 "op budget (%d steps) exceeded — livelock or unbounded loop"
                 max_steps)
          else begin
            let p =
              if depth < Vec.length nodes then begin
                let nd = Vec.get nodes depth in
                if not (List.mem nd.chosen enabled) then
                  failwith
                    "Sched: scenario is not deterministic (replay diverged)";
                nd.enabled <- enabled;
                nd.chosen
              end
              else begin
                let p = List.fold_left min (List.hd enabled) enabled in
                Vec.push nodes
                  {
                    chosen = p;
                    enabled;
                    loc = -1;
                    acc = Event.Read;
                    backtrack = IntSet.singleton p;
                    done_ = IntSet.singleton p;
                  };
                p
              end
            in
            let nd = Vec.get nodes depth in
            let th = threads.(p) in
            incr step_no;
            (match th.st with
            | Pending pd ->
                mode := Running p;
                pd.exec ();
                mode := Idle;
                (match !trace_buf with
                | ev :: _ when ev.Event.thread = p && ev.Event.step = !step_no
                  ->
                    nd.loc <- ev.Event.loc;
                    nd.acc <- Event.access_of_kind ev.Event.kind
                | _ ->
                    nd.loc <- -1;
                    nd.acc <- Event.Read)
            | Blocked b ->
                record ~tid:p ~loc:(-1) ~loc_name:"" ~kind:Event.Wake
                  ~repr:"woke from wait";
                mode := Running p;
                b.resume ();
                mode := Idle;
                nd.loc <- -1;
                nd.acc <- Event.Read
            | Finished | Raised _ -> assert false);
            loop (depth + 1)
          end
        end
  in
  let status = loop 0 in
  Array.iter
    (fun t ->
      match t.st with
      | Pending pd -> pd.abort ()
      | Blocked b -> b.abort ()
      | Finished | Raised _ -> ())
    threads;
  (status, List.rev !trace_buf)

let default_max_steps = 4000
let default_max_interleavings = 500_000

let check ?(max_steps = default_max_steps)
    ?(max_interleavings = default_max_interleavings) ?on_trace ~name scenario =
  let nodes = Vec.create () in
  let runs = ref 0 in
  let events = ref 0 in
  let maxd = ref 0 in
  let rec go () =
    if !runs >= max_interleavings then
      failwith
        (Printf.sprintf
           "Sched.check %s: state space larger than %d interleavings — shrink \
            the scenario"
           name max_interleavings);
    incr runs;
    let status, trace = run_once ~max_steps ~nodes scenario in
    events := !events + List.length trace;
    maxd := max !maxd (Vec.length nodes);
    match status with
    | Violated reason ->
        Fail { vname = name; reason; trace; after_interleavings = !runs }
    | Completed -> (
        (match on_trace with Some f -> f trace | None -> ());
        (* Add a backtrack point for every pair of dependent operations
           by different threads: re-run the schedule that reverses
           them.  (Persistent-set DPOR, conservative variant: every
           dependent predecessor gets a point, not only the latest.) *)
        let n = Vec.length nodes in
        for i = 1 to n - 1 do
          let ni = Vec.get nodes i in
          if ni.loc >= 0 then
            for j = 0 to i - 1 do
              let nj = Vec.get nodes j in
              if
                nj.loc = ni.loc
                && nj.chosen <> ni.chosen
                && not (nj.acc = Event.Read && ni.acc = Event.Read)
              then
                if List.mem ni.chosen nj.enabled then
                  nj.backtrack <- IntSet.add ni.chosen nj.backtrack
                else
                  nj.backtrack <-
                    List.fold_left
                      (fun s q -> IntSet.add q s)
                      nj.backtrack nj.enabled
            done
        done;
        let rec deepest k =
          if k < 0 then None
          else
            let nd = Vec.get nodes k in
            let pend = IntSet.diff nd.backtrack nd.done_ in
            if IntSet.is_empty pend then deepest (k - 1)
            else Some (k, IntSet.min_elt pend)
        in
        match deepest (Vec.length nodes - 1) with
        | None ->
            Pass
              {
                name;
                interleavings = !runs;
                events = !events;
                max_depth = !maxd;
              }
        | Some (k, p) ->
            let nd = Vec.get nodes k in
            nd.chosen <- p;
            nd.done_ <- IntSet.add p nd.done_;
            Vec.truncate nodes (k + 1);
            go ())
  in
  go ()
