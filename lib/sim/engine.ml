(** Discrete-event simulation engine.

    A single global virtual clock (integer nanoseconds) and a binary
    heap of pending events.  Events scheduled for the same instant fire
    in scheduling order (the heap orders by time, then by a sequence
    number), which makes every simulation deterministic.

    The runtime-system simulator ({!Repro_parrts}) drives everything
    through this engine: capability scheduling slices, GC barriers,
    message deliveries and timers are all events.

    The heap is three parallel arrays, so scheduling and dispatching an
    event allocate nothing but the event's own closure: slot [i] holds
    [times.(i)], [seqs.(i)] and [fns.(i)]. *)

type t = {
  mutable now : int;  (** current virtual time, ns *)
  mutable times : int array;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
  mutable size : int;  (** slots [0, size) hold the pending events *)
  mutable next_seq : int;
  mutable running : bool;
  mutable dispatched : int;
  horizon : int;  (** safety stop, ns *)
}

exception Horizon_exceeded of int

let default_horizon = 3_600_000_000_000 (* one virtual hour *)

(* Fills free slots, so the heap does not keep a fired event's closure
   alive. *)
let nop () = ()

let create ?(horizon = default_horizon) () =
  {
    now = 0;
    times = Array.make 16 0;
    seqs = Array.make 16 0;
    fns = Array.make 16 nop;
    size = 0;
    next_seq = 0;
    running = false;
    dispatched = 0;
    horizon;
  }

let now t = t.now
let dispatched t = t.dispatched

let grow t =
  let cap = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.fns <- extend t.fns nop

let set t i time seq f =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.fns.(i) <- f

(* Sift a new event up from the hole at [i].  It has the largest
   sequence number, so it passes a parent only if it is strictly
   earlier.  The heap's helpers are top-level functions, not local
   ones: a local function would be a closure allocated per call. *)
let rec sift_up t i time seq f =
  let parent = (i - 1) / 2 in
  if i > 0 && time < t.times.(parent) then begin
    set t i t.times.(parent) t.seqs.(parent) t.fns.(parent);
    sift_up t parent time seq f
  end
  else set t i time seq f

let at t time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d is in the past (now=%d)" time t.now);
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  sift_up t t.size time seq f;
  t.size <- t.size + 1

let after t delay f =
  if delay < 0 then invalid_arg "Engine.after: negative delay";
  at t (t.now + delay) f

let stop t = t.running <- false

(* Does slot [i] fire strictly before slot [j]? *)
let earlier t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

(* Sift an event down from the hole at [i] in a heap of [size]
   slots. *)
let rec sift_down t size i time seq f =
  let l = (2 * i) + 1 in
  let c = if l + 1 < size && earlier t (l + 1) l then l + 1 else l in
  if c < size && (t.times.(c) < time || (t.times.(c) = time && t.seqs.(c) < seq))
  then begin
    set t i t.times.(c) t.seqs.(c) t.fns.(c);
    sift_down t size c time seq f
  end
  else set t i time seq f

(* Remove the minimum: move the last event into the root's place and
   sift it down. *)
let remove_min t =
  let last = t.size - 1 in
  t.size <- last;
  let f = t.fns.(last) in
  t.fns.(last) <- nop;
  if last > 0 then sift_down t last 0 t.times.(last) t.seqs.(last) f

(* The event loop.  The minimum is read in place and removed only once
   it is due, so an event past [limit] keeps its place among the events
   of its instant. *)
let rec dispatch t limit =
  if t.running && t.size > 0 then begin
    let time = t.times.(0) in
    if time > limit then t.now <- Int.max t.now limit
    else begin
      if time > t.horizon then raise (Horizon_exceeded time);
      let f = t.fns.(0) in
      remove_min t;
      t.now <- Int.max t.now time;
      t.dispatched <- t.dispatched + 1;
      f ();
      dispatch t limit
    end
  end

(* Run until the event queue drains (or [until] / the horizon is hit).
   Returns the final virtual time. *)
let run ?until t =
  t.running <- true;
  dispatch t (match until with None -> max_int | Some u -> u);
  t.running <- false;
  t.now
