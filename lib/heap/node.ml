(** Reified lazy heap nodes (thunks) with black-hole synchronisation.

    OCaml is strict, but the paper's central black-holing study
    (Sec. IV-A.3) is about *lazy* heap semantics: a thunk entered by one
    thread may concurrently be entered by another, duplicating work,
    unless it is marked as a "black hole".  We therefore reify the GHC
    heap-node life cycle as an explicit data structure:

    {v
      Unevaluated f --enter--> (optionally Blackhole) --update--> Value v
    v}

    - Under {b eager} black-holing, the runtime marks the node at entry,
      so a second thread finds [Blackhole] and blocks until the update.
    - Under {b lazy} black-holing, the node stays [Unevaluated] until the
      owning thread is descheduled (the runtime then retroactively marks
      the nodes on the thread's update stack).  In the window before
      that, other threads entering the node silently duplicate the
      evaluation — exactly GHC's behaviour, and exactly what makes the
      paper's shortest-path benchmark collapse without eager marking.

    Updates are idempotent (referential transparency): a duplicate
    evaluation writing second is counted as wasted work, never an error.

    A [registry] aggregates statistics per simulated heap. *)

type registry = {
  mutable created : int;
  mutable entered : int;
  mutable dup_entries : int;  (** entries into a node already being evaluated *)
  mutable dup_updates : int;  (** updates that found a value already present *)
  mutable blocked_forces : int;  (** forces that hit a black hole *)
  mutable updates : int;
  mutable blackholed : int;  (** nodes explicitly marked *)
  mutable next_id : int;
}

let registry () =
  {
    created = 0;
    entered = 0;
    dup_entries = 0;
    dup_updates = 0;
    blocked_forces = 0;
    updates = 0;
    blackholed = 0;
    next_id = 0;
  }

type 'a state =
  | Unevaluated of (unit -> 'a)
  | Blackhole of (unit -> 'a)
      (** marked under evaluation; the closure is retained so that a
          thread resuming a duplicate lazy-entry can still be modelled *)
  | Value of 'a

type 'a t = {
  id : int;
  reg : registry;
  mutable st : 'a state;
  mutable evaluators : int;  (** threads currently inside the closure *)
  mutable waiters : (unit -> unit) list;
  size : int;  (** bytes this node's value occupies in the heap *)
}

(** Existential wrapper so a thread can keep a heterogeneous update
    stack of the thunks it is currently evaluating (for retroactive
    lazy black-holing at context-switch time). *)
type boxed = Boxed : 'a t -> boxed

let thunk ?(size = 24) reg f =
  reg.created <- reg.created + 1;
  reg.next_id <- reg.next_id + 1;
  { id = reg.next_id; reg; st = Unevaluated f; evaluators = 0; waiters = []; size }

let value ?(size = 24) reg v =
  reg.next_id <- reg.next_id + 1;
  { id = reg.next_id; reg; st = Value v; evaluators = 0; waiters = []; size }


let is_value n = match n.st with Value _ -> true | _ -> false
let is_blackhole n = match n.st with Blackhole _ -> true | _ -> false

let peek n = match n.st with Value v -> Some v | _ -> None

exception Not_evaluated

let get_value n =
  match n.st with Value v -> v | _ -> raise Not_evaluated

(** What a force attempt should do next, as decided by the node state
    and the black-holing policy.  The runtime layer interprets this. *)
type 'a entry_decision =
  | Ready of 'a  (** already a value *)
  | Evaluate of (unit -> 'a)
      (** caller should run the closure then [update] *)
  | Wait  (** black hole: caller must block until updated *)

(* [enter ~eager n]: a thread is about to force [n].

   With [eager = true] the node is marked [Blackhole] atomically with
   the entry decision.  With [eager = false] the node stays
   [Unevaluated]; a concurrent second entry is permitted (and counted as
   a duplicate). *)
let enter ~eager n =
  match n.st with
  | Value v -> Ready v
  | Blackhole _ ->
      n.reg.blocked_forces <- n.reg.blocked_forces + 1;
      Wait
  | Unevaluated f ->
      n.reg.entered <- n.reg.entered + 1;
      if n.evaluators > 0 then n.reg.dup_entries <- n.reg.dup_entries + 1;
      n.evaluators <- n.evaluators + 1;
      if eager then begin
        n.reg.blackholed <- n.reg.blackholed + 1;
        n.st <- Blackhole f
      end;
      Evaluate f

(* Retroactive marking used by lazy black-holing at context switch:
   blackhole the node if it is still unevaluated. *)
let blackhole_if_unevaluated n =
  match n.st with
  | Unevaluated f ->
      n.reg.blackholed <- n.reg.blackholed + 1;
      n.st <- Blackhole f;
      true
  | _ -> false

let blackhole_boxed (Boxed n) = ignore (blackhole_if_unevaluated n)

(* Register a wake-up callback, fired exactly once when the node is
   updated.  If the node is already a value the callback fires
   immediately (avoiding lost wake-ups). *)
let add_waiter n k =
  match n.st with Value _ -> k () | _ -> n.waiters <- k :: n.waiters

(* [update n v]: evaluation finished.  Returns [true] if this update
   installed the value, [false] if it was a duplicate (value already
   there).  Wakes all waiters either way exactly once (the waiter list
   is cleared). *)
let update n v =
  n.evaluators <- Int.max 0 (n.evaluators - 1);
  let installed =
    match n.st with
    | Value _ ->
        n.reg.dup_updates <- n.reg.dup_updates + 1;
        false
    | Unevaluated _ | Blackhole _ ->
        n.reg.updates <- n.reg.updates + 1;
        n.st <- Value v;
        true
  in
  let ws = n.waiters in
  n.waiters <- [];
  List.iter (fun k -> k ()) ws;
  installed

let waiters_count n = List.length n.waiters
