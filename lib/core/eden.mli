(** Eden: explicit processes with channel communication on the
    distributed-heap runtime (paper Sec. II-A).

    Communication follows [Trans]-class semantics: values are reduced
    to normal form before sending (charged to the sender), top-level
    lists are streamed element by element, and channels are
    placeholders in the receiving PE's heap — a thread forcing an
    unfilled placeholder blocks and the arriving message wakes it
    (Sec. III-B).  All functions must run inside a simulation
    configured with [heap_mode = Distributed _]. *)

(** The [Trans] "type class": wire size and normal-form reduction cost
    of a value. *)
type 'a trans = { bytes : 'a -> int; nf_cycles : 'a -> int }

val t_int : int trans
val t_float : float trans
val t_pair : 'a trans -> 'b trans -> ('a * 'b) trans
val t_list : 'a trans -> 'a list trans
val t_float_array : float array trans
val t_float_matrix : float array array trans

(** {1 One-shot channels} *)

type 'a chan

(** A channel owned by the calling PE. *)
val new_chan : unit -> 'a chan

(** A channel owned by another PE (models Eden's dynamic channel
    hand-shake where the receiver creates the channel). *)
val new_chan_at : pe:int -> 'a chan

(** Send: the sender pays normal-form reduction and packing; the
    message travels through the middleware to the owner's heap
    (same-PE sends are local loop-backs). *)
val send : 'a trans -> 'a chan -> 'a -> unit

(** Receive: blocks until the placeholder is filled.
    @raise Failure when called on a PE that does not own the channel. *)
val recv : 'a chan -> 'a

(** {1 Stream channels} (top-level list communication) *)

type 'a stream

val new_stream : unit -> 'a stream
val new_stream_at : pe:int -> 'a stream

(** Send one element (one message). *)
val put : 'a trans -> 'a stream -> 'a -> unit

(** End-of-stream mark (a small control message). *)
val close : 'a stream -> unit

(** Next element, or [None] at end of stream; blocks while the stream
    is empty but open.  Single-reader discipline (the owning
    process).
    @raise Failure when called on a PE that does not own the stream. *)
val next : 'a stream -> 'a option

(** Send a whole list element-wise, then close. *)
val put_list : 'a trans -> 'a stream -> 'a list -> unit

(** Collect to a list (blocks until closed). *)
val to_list : 'a stream -> 'a list

(** {1 Process instantiation} *)

(** [instantiate_at ~pe body]: ship a process closure to [pe] and run
    it there as a fresh thread (Eden's [instantiateAt]). *)
val instantiate_at : pe:int -> (unit -> unit) -> unit

(** [spawn ~tr_in ~tr_out f inputs]: one process per input; each child
    waits on an input channel, applies [f], sends its result back.
    The parent pays for shipping inputs, children for results.
    Outputs are returned in input order. *)
val spawn :
  tr_in:'a trans -> tr_out:'b trans -> ('a -> 'b) -> 'a list -> 'b list
