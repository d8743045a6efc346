(** Placement and exactly-once ledger of a coordinator's round, as one
    pure transition function (see the interface). *)

module Held = Map.Make (Int)
module Accepted = Set.Make (Int)

type 'a placement = { worker : int; task : int; payload : 'a }

type error =
  | Wrong_round of { round : int; expected : int }
  | Unknown_task of int
  | Duplicate of int

(* A FIFO: a front list and a reversed back list. *)
type 'a fifo = 'a list * 'a list

let push x ((front, back) : 'a fifo) : 'a fifo = (front, x :: back)

let pop : 'a fifo -> ('a * 'a fifo) option = function
  | x :: front, back -> Some (x, (front, back))
  | [], back -> (
      match List.rev back with x :: front -> Some (x, (front, [])) | [] -> None)

type 'a t = {
  workers : int;
  round : int;
  pinned : bool;
  ids : int;  (** tasks the round has had; the next one gets this number *)
  pool : (int * 'a) fifo;  (** unpinned tasks no worker holds yet *)
  free : int fifo;  (** one worker per free slot, oldest first *)
  held : int Held.t;  (** task -> the worker holding it *)
  accepted : Accepted.t;
}

(* Number the new tasks: a pinned one goes to its worker at once, an
   unpinned one joins the pool.  [placed] is newest first. *)
let add st payloads placed =
  List.fold_left
    (fun (st, placed) payload ->
      let task = st.ids in
      let st = { st with ids = task + 1 } in
      if st.pinned then
        let worker = task mod st.workers in
        ( { st with held = Held.add task worker st.held },
          { worker; task; payload } :: placed )
      else ({ st with pool = push (task, payload) st.pool }, placed))
    (st, placed) payloads

(* Fill free slots with pooled tasks, both oldest first, until one of
   the two runs out. *)
let rec serve st placed =
  match (pop st.pool, pop st.free) with
  | Some ((task, payload), pool), Some (worker, free) ->
      serve
        { st with pool; free; held = Held.add task worker st.held }
        ({ worker; task; payload } :: placed)
  | _ -> (st, List.rev placed)

let start ~workers ~prefetch ~round ~pinned tasks =
  if workers < 1 || prefetch < 1 then
    invalid_arg "Star.start: workers and prefetch must be >= 1";
  let free =
    if pinned then [] else List.init (workers * prefetch) (fun i -> i / prefetch)
  in
  let st =
    {
      workers;
      round;
      pinned;
      ids = 0;
      pool = ([], []);
      free = (free, []);
      held = Held.empty;
      accepted = Accepted.empty;
    }
  in
  let st, placed = add st tasks [] in
  serve st placed

let result st ~worker ~round ~task adds =
  if round <> st.round then Error (Wrong_round { round; expected = st.round })
  else if Accepted.mem task st.accepted then Error (Duplicate task)
  else
    match Held.find_opt task st.held with
    | Some w when w = worker ->
        let st =
          {
            st with
            held = Held.remove task st.held;
            accepted = Accepted.add task st.accepted;
            free = (if st.pinned then st.free else push worker st.free);
          }
        in
        let st, placed = add st adds [] in
        Ok (serve st placed)
    | _ -> Error (Unknown_task task)

(* A pooled task means every slot is held, so no held task means none
   is left. *)
let finished st = Held.is_empty st.held
