(** Shared-memory ring transport: mmap'd SPSC ring pairs with a
    Dekker-gated doorbell — the zero-syscall case of [Link.t].

    A {e segment} (a file, preferably on [/dev/shm]) holds two rings,
    one per direction; the two endpoints attach to opposite {e sides}.
    Byte messages and float messages stream through as 8-byte-aligned
    frames that never straddle the ring end, so float payloads are
    written straight into (and read straight out of) the shared
    mapping — the [zero_copy_bytes_*] counters.  See the [.ml] header
    for the layout, the frame format and the doorbell handshake. *)

type conn

(** Create and size a segment file (zero-filled: both rings empty).
    Nothing is mapped; both endpoints {!attach} by path — which is how
    the path crosses [create_process] (argv), no descriptor plumbing.
    The creator should {!unlink_segment} once both sides attached.
    [ring_bytes] (default 256 KiB) is each ring's data area. *)
val create_segment : ?ring_bytes:int -> unit -> string

val unlink_segment : string -> unit

(** Map the segment.  The two endpoints must pass opposite [side]s.
    [doorbell] is a full-duplex descriptor (one end of a socketpair),
    owned by the link from here on: blocking receives sleep on it and
    sends wake the peer through it, but only when the peer armed it, so
    a consumer that never sleeps never costs a syscall.  Ring geometry
    is recovered from the file size.  The descriptor opened on [path]
    is closed again before returning (the mappings outlive it). *)
val attach :
  path:string -> side:[ `A | `B ] -> doorbell:Unix.file_descr -> conn

(** Blocks, microsleeping, while the out-ring is full: a message larger
    than the ring needs the peer to be receiving.
    @raise Wire.Dead_peer if the peer closed its doorbell while the
    ring was full (it died, so it will never free the ring). *)
val send : conn -> string -> unit

(** [send_floats c x y arr]: one float message, as {!Wire.send_floats}
    sends it, its elements written straight into the mapping. *)
val send_floats : conn -> int -> int -> float array -> unit

(** Receive one message, on whichever plane it was sent.
    @raise End_of_file if the peer died at a message boundary,
    @raise Wire.Truncated mid-message,
    @raise Wire.Protocol_error on a malformed message — same contract
    as {!Wire.recv_message}. *)
val recv_message : conn -> Wire.message
val counters : conn -> Wire.counters

(** A message may be (partially) available — non-blocking. *)
val input_ready : conn -> bool

(** The doorbell descriptor, for [Unix.select] multiplexing over many
    links.  Arm each link with {!prepare_sleep} first, re-check
    {!input_ready}, select, then {!drain_doorbell} + {!cancel_sleep} —
    the same handshake blocking {!recv_message} performs on one link. *)
val wait_fd : conn -> Unix.file_descr

(** Arm the doorbell ([sleeping] := 1) and fence.  The caller {e must}
    re-check {!input_ready} after this and before blocking. *)
val prepare_sleep : conn -> unit

val cancel_sleep : conn -> unit

(** Swallow pending wake tokens, non-blocking (they are hints; a stale
    one only causes a spurious wake). *)
val drain_doorbell : conn -> unit

(** The doorbell returned EOF: the peer is dead.  Blocking receives
    raise once the ring is drained; multiplexed waiters should check
    this after {!drain_doorbell}. *)
val peer_gone : conn -> bool

(** Closes the doorbell (the mappings are reclaimed by the GC /
    process exit; the segment file by {!unlink_segment}).  Closing
    twice closes once. *)
val close : conn -> unit

(** The shim control-word instance: an 8-byte-aligned slot of the
    mapped segment.  Exposed for tests. *)
module Mapped_word : sig
  type t = {
    words : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
    idx : int;
  }

  include Repro_shim.Tatomic.WORD with type t := t
end

(** The distilled SPSC handshake (one word per slot), functorised over
    the control-word implementation so [lib/check] can exhaust it with
    traced cells and QCheck can race it against a queue reference.
    {!try_push} writes the slot {e then} publishes the tail;
    {!try_pop} observes the tail, reads, {e then} releases — the
    ordering the production frames above rely on. *)
module Spsc (W : Repro_shim.Tatomic.WORD) : sig
  type t = {
    cap : int;
    tail : W.t;
    head : W.t;
    get : int -> int;
    set : int -> int -> unit;
  }

  val create :
    cap:int ->
    tail:W.t ->
    head:W.t ->
    get:(int -> int) ->
    set:(int -> int -> unit) ->
    t

  val try_push : t -> int -> bool
  val try_pop : t -> int option
  val length : t -> int
end
