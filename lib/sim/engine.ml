(** Discrete-event simulation engine.

    A single global virtual clock (integer nanoseconds) and a binary
    heap of pending events.  Events scheduled for the same instant fire
    in scheduling order (the heap orders by time, then by a sequence
    number), which makes every simulation deterministic.

    The runtime-system simulator ({!Repro_parrts}) drives everything
    through this engine: capability scheduling slices, GC barriers,
    message deliveries and timers are all events.

    The heap holds only ints: heap position [i] holds [times.(i)],
    [seqs.(i)] and [slots.(i)], and the event's closure sits in
    [fns.(slots.(i))], a slot table that sifts never touch.  Under
    OCaml 5 every store of a pointer into the major heap pays a write
    barrier; here an event's closure is stored once, when it is
    scheduled, however far it sifts.  Positions [size, capacity) of
    [slots] hold the free slots, so the next event takes
    [slots.(size)].

    The event being dispatched stays at the root while its handler
    runs: every event the handler schedules is no earlier and has a
    larger sequence number, so none passes it.  Afterwards it is
    removed, or, if the handler called {!again}, re-keyed in place and
    sifted down once. *)

type t = {
  mutable now : int;  (** current virtual time, ns *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable fns : (unit -> unit) array;  (** by slot *)
  mutable size : int;  (** positions [0, size) hold the pending events *)
  mutable next_seq : int;
  mutable running : bool;
  mutable dispatched : int;
  mutable in_handler : bool;  (** the root's handler is running *)
  mutable again_time : int;  (** -1, or when {!again} re-arms the root *)
  mutable again_seq : int;
  horizon : int;  (** safety stop, ns *)
}

exception Horizon_exceeded of int

let default_horizon = 3_600_000_000_000 (* one virtual hour *)

(* Fills free slots, so the table does not keep a fired event's closure
   alive. *)
let nop () = ()

let create ?(horizon = default_horizon) () =
  {
    now = 0;
    times = Array.make 16 0;
    seqs = Array.make 16 0;
    slots = Array.init 16 Fun.id;
    fns = Array.make 16 nop;
    size = 0;
    next_seq = 0;
    running = false;
    dispatched = 0;
    in_handler = false;
    again_time = -1;
    again_seq = 0;
    horizon;
  }

let now t = t.now
let dispatched t = t.dispatched

(* Only a full heap grows, so every old slot is in use and the new
   slots are the new positions' own. *)
let grow t =
  let old = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * old) fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- Array.init (2 * old) (fun i -> if i < old then t.slots.(i) else i);
  t.fns <- extend t.fns nop

let set t i time seq slot =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot

(* Sift a new event up from the hole at [i].  It has the largest
   sequence number, so it passes a parent only if it is strictly
   earlier.  The heap's helpers are top-level functions, not local
   ones: a local function would be a closure allocated per call. *)
let rec sift_up t i time seq slot =
  let parent = (i - 1) / 2 in
  if i > 0 && time < t.times.(parent) then begin
    set t i t.times.(parent) t.seqs.(parent) t.slots.(parent);
    sift_up t parent time seq slot
  end
  else set t i time seq slot

let at t time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d is in the past (now=%d)" time t.now);
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot = t.slots.(t.size) in
  t.fns.(slot) <- f;
  sift_up t t.size time seq slot;
  t.size <- t.size + 1

let after t delay f =
  if delay < 0 then invalid_arg "Engine.after: negative delay";
  at t (t.now + delay) f

let again t delay =
  if not t.in_handler then invalid_arg "Engine.again: no event is being dispatched";
  if t.again_time >= 0 then invalid_arg "Engine.again: the event is re-armed already";
  if delay < 0 then invalid_arg "Engine.again: negative delay";
  t.again_time <- t.now + delay;
  t.again_seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1

let stop t = t.running <- false

(* Does position [i] fire strictly before position [j]? *)
let earlier t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

(* Sift an event down from the hole at [i] in a heap of [size]
   positions. *)
let rec sift_down t size i time seq slot =
  let l = (2 * i) + 1 in
  let c = if l + 1 < size && earlier t (l + 1) l then l + 1 else l in
  if c < size && (t.times.(c) < time || (t.times.(c) = time && t.seqs.(c) < seq))
  then begin
    set t i t.times.(c) t.seqs.(c) t.slots.(c);
    sift_down t size c time seq slot
  end
  else set t i time seq slot

(* Remove the root: move the last event into its place, sift it down
   and free the root's slot. *)
let remove_root t =
  let last = t.size - 1 in
  let freed = t.slots.(0) in
  t.fns.(freed) <- nop;
  t.size <- last;
  if last > 0 then sift_down t last 0 t.times.(last) t.seqs.(last) t.slots.(last);
  t.slots.(last) <- freed

(* The event loop.  The root is read in place and handled only once it
   is due, so an event past [limit] keeps its place among the events of
   its instant.  After its handler the root is re-keyed if {!again} was
   called, else removed. *)
let rec dispatch t limit =
  if t.running && t.size > 0 then begin
    let time = t.times.(0) in
    if time > limit then t.now <- Int.max t.now limit
    else begin
      if time > t.horizon then raise (Horizon_exceeded time);
      t.now <- Int.max t.now time;
      t.dispatched <- t.dispatched + 1;
      t.in_handler <- true;
      (match t.fns.(t.slots.(0)) () with
      | () -> ()
      | exception e ->
          (* a handler that raises leaves no event behind, re-armed or
             not *)
          t.in_handler <- false;
          t.again_time <- -1;
          remove_root t;
          raise e);
      t.in_handler <- false;
      let again = t.again_time in
      if again < 0 then remove_root t
      else begin
        t.again_time <- -1;
        sift_down t t.size 0 again t.again_seq t.slots.(0)
      end;
      dispatch t limit
    end
  end

(* Run until the event queue drains (or [until] / the horizon is hit).
   Returns the final virtual time. *)
let run ?until t =
  if t.in_handler then invalid_arg "Engine.run: called from a handler";
  t.running <- true;
  dispatch t (match until with None -> max_int | Some u -> u);
  t.running <- false;
  t.now
