(** Framed byte-stream transport between PEs: length-prefixed packets
    over a [socketpair] (or any fd pair), with per-connection
    message/byte/packet counters.  The real counterpart of
    [Repro_mp.Transport]'s simulated cost profiles.

    Packet format: [u32 chunk-length (big-endian) | u8 flags | chunk];
    flag bit 0 marks the last packet of a message, flag bit 1 a packet
    of a float-frame message (the zero-Marshal bulk-data plane).  A
    zero-length message is one empty last packet. *)

(** Peer closed mid-frame (EOF inside a header or chunk). *)
exception Truncated of string

(** Peer closed before a send completed (EPIPE/ECONNRESET). *)
exception Dead_peer of string

(** Malformed stream: unknown flags, an absurd chunk length, plane
    confusion or a float frame that does not match its announced
    length. *)
exception Protocol_error of string

(** Raise the corresponding exception after bumping its
    [repro_wire_errors_total{kind=...}] counter in the default metrics
    registry — every transport raise site (here and in [Shm_ring])
    goes through these, so transport errors are visible in snapshots
    even when caught upstream. *)
val raise_truncated : string -> 'a

val raise_dead_peer : string -> 'a
val raise_protocol : string -> 'a

val header_bytes : int
val default_packet_bytes : int

type counters = {
  mutable msgs_sent : int;
  mutable msgs_recv : int;
  mutable bytes_sent : int;  (** on-wire bytes, packet headers included *)
  mutable bytes_recv : int;
  mutable packets_sent : int;
  mutable packets_recv : int;
  mutable payload_bytes_sent : int;
      (** payload bytes only, framing excluded — [bytes_* -
          payload_bytes_*] is the transport's framing overhead *)
  mutable payload_bytes_recv : int;
  mutable zero_copy_bytes_sent : int;
      (** payload bytes moved without an intermediate copy (shm ring
          float frames); always 0 on this socketpair transport *)
  mutable zero_copy_bytes_recv : int;
  mutable pack_ns : int;  (** Marshal time, accumulated by {!Message} *)
  mutable unpack_ns : int;
}

val fresh_counters : unit -> counters

(** Register [counters] as a per-link collector in the default metrics
    registry, labelled by [transport] only: all links of a transport
    sum into one series (the per-link view is [Farm.pe_report.co]).
    Remove the token at close — removal retires the final totals, so
    closed links stay in cumulative snapshots without growing them. *)
val add_link_collector :
  transport:string -> counters -> Repro_metrics.Metrics.collector

(** The transport abstraction {!Message} and [Farm] are written
    against: byte messages (Marshal control plane), float messages
    (zero-Marshal bulk-data plane, element count carried by control
    messages), counters, and select-compatible readiness.  Implemented
    by {!Sock} below and by [Shm_ring]. *)
module type TRANSPORT = sig
  type t

  val send : t -> string -> unit
  val recv : t -> string
  val send_floats : t -> float array -> unit
  val recv_floats : t -> len:int -> float array
  val counters : t -> counters

  (** A descriptor whose readability means "input may be available" —
      the socket itself, or the ring's doorbell.  Spurious wake-ups
      allowed; missed messages are not.  Check [input_ready] after
      waking. *)
  val wait_fd : t -> Unix.file_descr

  (** Non-blocking: is a message (possibly partially) available?  May
      be true while [wait_fd] shows nothing (ring data published
      without a doorbell).  A memory load on the ring, a syscall on the
      socketpair: only the ring's test is cheap enough to spin on. *)
  val input_ready : t -> bool

  val close : t -> unit
end

type conn

(** [create ~read_fd ~write_fd ()] wraps a descriptor pair (they may
    be the same descriptor, e.g. one end of a socketpair).  Ignores
    SIGPIPE process-wide on first use so a dead peer surfaces as
    {!Dead_peer} rather than a fatal signal.
    @raise Invalid_argument if [packet_bytes < 1]. *)
val create :
  ?packet_bytes:int ->
  read_fd:Unix.file_descr ->
  write_fd:Unix.file_descr ->
  unit ->
  conn

val counters : conn -> counters
val packet_bytes : conn -> int

(** The receiving descriptor, for [Unix.select] multiplexing (safe
    because {!recv} never reads ahead of the current frame). *)
val read_fd : conn -> Unix.file_descr

(** Number of packets a [len]-byte message needs (at least 1). *)
val packets_of_len : packet_bytes:int -> int -> int

(** Pure codec (property tests): [encode] produces the exact byte
    stream [send] would write; [decode s ~pos] returns the payload and
    the position one past its last packet.
    @raise Truncated if [s] ends before the message completes
    (including an empty remainder). *)
val encode : packet_bytes:int -> string -> string

val decode : string -> pos:int -> string * int

(** Send one message (split into packets).
    @raise Dead_peer if the peer is gone. *)
val send : conn -> string -> unit

(** Receive one message.  Reads are exact — nothing is buffered ahead,
    so [Unix.select] readiness means a header is in flight.
    @raise End_of_file on a clean EOF at a frame boundary.
    @raise Truncated on EOF mid-frame. *)
val recv : conn -> string

(** Send a float payload as raw little-endian IEEE-754 bits (flag bit
    1 packets): bit-exact, no [Marshal].  Counted under
    [payload_bytes_*] like any payload; never zero-copy here. *)
val send_floats : conn -> float array -> unit

(** Receive a float message of exactly [len] elements (the count
    travels in the preceding control message).
    @raise Protocol_error on plane confusion or a length mismatch. *)
val recv_floats : conn -> len:int -> float array

(** Non-blocking readiness probe: [Unix.select] with a 0 timeout, so
    each call is a syscall and is never spun on.  To test many links
    use one [select] over all of them; to wait, block in [select]. *)
val input_ready : conn -> bool

val close : conn -> unit

(** The socketpair transport packaged as a {!TRANSPORT} ([wait_fd] =
    {!read_fd}). *)
module Sock : TRANSPORT with type t = conn
