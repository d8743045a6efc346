(** Eden: explicit processes with channel communication on the
    distributed-heap runtime.

    Eden (Loogen, Ortega-Mallén & Peña) extends Haskell with process
    abstractions instantiated on remote PEs.  Communication follows the
    [Trans] class semantics (paper Sec. II-A.1):

    - all values are reduced to {e normal form} before sending (we
      charge the normal-form evaluation to the sender);
    - top-level lists are streamed element by element;
    - tuple components are evaluated and sent by independent threads;
    - everything else travels in a single message.

    Channels are placeholders in the receiving PE's heap: a thread
    forcing an unfilled placeholder blocks, and the arriving message
    updates the placeholder and wakes it — exactly the implementation
    the paper describes in Sec. III-B.

    All functions must run inside a simulation ({!Repro_parrts.Rts.run})
    configured with [heap_mode = Distributed _]. *)

module Cost = Repro_util.Cost
module Rts = Repro_parrts.Rts
module Api = Repro_parrts.Rts.Api

(* ------------------------------------------------------------------ *)
(* Trans dictionaries: serialised size + normal-form cost              *)
(* ------------------------------------------------------------------ *)

(** The [Trans] "type class": how many bytes a value occupies on the
    wire, and how many cycles reducing it to normal form costs the
    sender.  (Values are strict OCaml data; the NF charge models the
    evaluation Haskell would perform at send time.) *)
type 'a trans = { bytes : 'a -> int; nf_cycles : 'a -> int }

let t_int = { bytes = (fun _ -> 16); nf_cycles = (fun _ -> 2) }
let t_float = { bytes = (fun _ -> 16); nf_cycles = (fun _ -> 2) }

let t_pair a b =
  {
    bytes = (fun (x, y) -> 16 + a.bytes x + b.bytes y);
    nf_cycles = (fun (x, y) -> 4 + a.nf_cycles x + b.nf_cycles y);
  }

let t_list e =
  {
    bytes = (fun xs -> 16 + List.fold_left (fun acc x -> acc + 24 + e.bytes x) 0 xs);
    nf_cycles =
      (fun xs -> 8 + List.fold_left (fun acc x -> acc + 4 + e.nf_cycles x) 0 xs);
  }

let t_float_array =
  {
    bytes = (fun a -> 24 + (8 * Array.length a));
    nf_cycles = (fun a -> 4 + Array.length a);
  }

(* A float matrix as array of rows. *)
let t_float_matrix =
  {
    bytes =
      (fun m -> 24 + Array.fold_left (fun acc r -> acc + 24 + (8 * Array.length r)) 0 m);
    nf_cycles = (fun m -> Array.fold_left (fun acc r -> acc + Array.length r) 4 m);
  }

(* ------------------------------------------------------------------ *)
(* One-shot channels                                                   *)
(* ------------------------------------------------------------------ *)

(** A one-shot channel owned by the PE that created it.  [recv] may
    only be called on the owner PE; [send] from anywhere. *)
type 'a chan = {
  owner : int;
  mutable value : 'a option;
  mutable waiters : (unit -> unit) list;
}

let new_chan () = { owner = Api.my_cap (); value = None; waiters = [] }

(** Create a channel owned by another PE (Eden's dynamic channel
    creation: the receiving process normally creates the channel and
    ships the channel name; creating it on the receiver's behalf models
    the same wiring). *)
let new_chan_at ~pe = { owner = pe; value = None; waiters = [] }

let chan_deliver ch v =
  ch.value <- Some v;
  let ws = ch.waiters in
  ch.waiters <- [];
  List.iter (fun k -> k ()) ws

(** Send [v]: the sender pays normal-form reduction and packing; the
    message then travels through the middleware to the owner's heap. *)
let send (tr : 'a trans) (ch : 'a chan) (v : 'a) =
  Api.charge (Cost.cycles (tr.nf_cycles v));
  let bytes = tr.bytes v in
  if ch.owner = Api.my_cap () then
    (* local loop-back: no middleware, just the placeholder update *)
    chan_deliver ch v
  else Api.send ~dst:ch.owner ~bytes (fun () -> chan_deliver ch v)

(** Receive: blocks until the placeholder is filled. *)
let rec recv (ch : 'a chan) : 'a =
  if Api.my_cap () <> ch.owner then
    failwith "Eden.recv: channel received on a PE that does not own it";
  match ch.value with
  | Some v -> v
  | None ->
      Api.block (fun wake -> ch.waiters <- wake :: ch.waiters);
      recv ch

(* ------------------------------------------------------------------ *)
(* Stream channels (top-level list communication)                      *)
(* ------------------------------------------------------------------ *)

(** An ordered stream of elements plus an end-of-stream mark,
    element-by-element as Eden communicates top-level lists. *)
type 'a stream = {
  s_owner : int;
  q : 'a Queue.t;
  mutable closed : bool;
  mutable s_waiters : (unit -> unit) list;
}

let new_stream () =
  { s_owner = Api.my_cap (); q = Queue.create (); closed = false; s_waiters = [] }

(** Create a stream owned by another PE (see {!new_chan_at}). *)
let new_stream_at ~pe =
  { s_owner = pe; q = Queue.create (); closed = false; s_waiters = [] }

let stream_wake st =
  let ws = st.s_waiters in
  st.s_waiters <- [];
  List.iter (fun k -> k ()) ws

(** Send one element into the stream (one message). *)
let put (tr : 'a trans) (st : 'a stream) (v : 'a) =
  Api.charge (Cost.cycles (tr.nf_cycles v));
  let bytes = tr.bytes v in
  if st.s_owner = Api.my_cap () then begin
    Queue.push v st.q;
    stream_wake st
  end
  else
    Api.send ~dst:st.s_owner ~bytes (fun () ->
        Queue.push v st.q;
        stream_wake st)

(** Close the stream (a small control message). *)
let close (st : 'a stream) =
  if st.s_owner = Api.my_cap () then begin
    st.closed <- true;
    stream_wake st
  end
  else
    Api.send ~dst:st.s_owner ~bytes:16 (fun () ->
        st.closed <- true;
        stream_wake st)

(** Take the next element; [None] at end of stream.  Blocks while the
    stream is empty but not yet closed. *)
let rec next (st : 'a stream) : 'a option =
  if Api.my_cap () <> st.s_owner then
    failwith "Eden.next: stream read on a PE that does not own it";
  match Queue.take_opt st.q with
  | Some v -> Some v
  | None ->
      if st.closed then None
      else begin
        Api.block (fun wake -> st.s_waiters <- wake :: st.s_waiters);
        next st
      end

(** Send a whole list as a stream and close it. *)
let put_list tr st xs =
  List.iter (fun x -> put tr st x) xs;
  close st

(** Collect a stream to a list (blocking until closed). *)
let to_list st =
  let rec go acc = match next st with None -> List.rev acc | Some v -> go (v :: acc) in
  go []

(* ------------------------------------------------------------------ *)
(* Process instantiation                                               *)
(* ------------------------------------------------------------------ *)

(** Size of the serialised process closure (graph shipped at
    instantiation time). *)
let closure_bytes = 512

(** [instantiate_at ~pe body] ships a process closure to [pe] and runs
    it there as a fresh thread.  This is Eden's [instantiateAt]
    primitive; the paper's [spawn] builds on it. *)
let instantiate_at ~pe (body : unit -> unit) =
  let me = Api.my_cap () in
  if pe = me then ignore (Api.spawn ~cap:pe body)
  else
    Api.send ~dst:pe ~bytes:closure_bytes (fun () ->
        ignore (Rts.spawn_raw (Rts.instance ()) ~cap:pe body))

(** Round-robin placement of [n] processes over all PEs, as Eden's
    default placement does (skipping the parent PE first). *)
let placement ~n =
  let npes = Api.ncaps () in
  let me = Api.my_cap () in
  List.init n (fun i -> (me + 1 + i) mod npes)

(** [spawn ~tr_in ~tr_out f inputs]: instantiate one process per input
    (Eden's [spawn]): each child waits on an input channel, applies
    [f], and sends its result back on a one-shot output channel.  The
    parent pays normal-form reduction and packing for every input it
    ships, each child pays for its result.  Outputs are returned in
    input order. *)
let spawn ~(tr_in : 'a trans) ~(tr_out : 'b trans) (f : 'a -> 'b)
    (inputs : 'a list) : 'b list =
  let n = List.length inputs in
  let pes = placement ~n in
  let outs = List.map (fun _ -> (new_chan () : 'b chan)) inputs in
  let inchans =
    List.map
      (fun pe -> ({ owner = pe; value = None; waiters = [] } : 'a chan))
      pes
  in
  (* start children: each waits on its input channel *)
  List.iteri
    (fun i out ->
      let pe = List.nth pes i in
      let inch = List.nth inchans i in
      instantiate_at ~pe (fun () ->
          let x = recv inch in
          send tr_out out (f x)))
    outs;
  (* ship the inputs (sender pays NF + packing per Trans) *)
  List.iter2 (fun inch input -> send tr_in inch input) inchans inputs;
  List.map recv outs
