(** Framed byte-stream transport between PEs: length-prefixed packets
    over a [socketpair] (or any fd pair), with per-connection
    message/byte/packet counters.  The real counterpart of
    [Repro_mp.Transport]'s simulated cost profiles.

    Packet format: [u32 chunk-length (big-endian) | u8 flags | chunk];
    flag bit 0 marks the last packet of a message, flag bit 1 a packet
    of a float message (the zero-Marshal bulk-data plane), whose first
    chunk opens with a header of two ints and its element count.  A
    zero-length message is one empty last packet. *)

(** Peer closed mid-frame (EOF inside a header or chunk). *)
exception Truncated of string

(** Peer closed before a send completed (EPIPE/ECONNRESET). *)
exception Dead_peer of string

(** Malformed stream: unknown flags, an absurd chunk length, plane
    confusion, a truncated float header or a float message whose
    packets do not match its element count. *)
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

(** A float message's header: two ints of the sender's and its element
    count, as three 64-bit words. *)
val float_header_bytes : int

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

(** [count_sent k ~packets ~framing payload] counts one message sent
    ([count_recv]: received): [packets] packets or frames, whose
    headers took [framing] bytes, around [payload] bytes of payload. *)
val count_sent : counters -> packets:int -> framing:int -> int -> unit

val count_recv : counters -> packets:int -> framing:int -> int -> unit

(** Register [counters] as a per-link collector in the default metrics
    registry, labelled by [transport] only: all links of a transport
    sum into one series (the per-link view is [Farm.pe_report.co]).
    Remove the token at close — removal retires the final totals, so
    closed links stay in cumulative snapshots without growing them. *)
val add_link_collector :
  transport:string -> counters -> Repro_metrics.Metrics.collector

type conn

(** [create ~read_fd ~write_fd ()] wraps a descriptor pair (they may
    be the same descriptor, e.g. one end of a socketpair).  Ignores
    SIGPIPE process-wide on first use so a dead peer surfaces as
    {!Dead_peer} rather than a fatal signal.  [packet_bytes] defaults
    to 32 KiB.
    @raise Invalid_argument if [packet_bytes < 1]. *)
val create :
  ?packet_bytes:int ->
  read_fd:Unix.file_descr ->
  write_fd:Unix.file_descr ->
  unit ->
  conn

val counters : conn -> counters

(** The receiving descriptor, for [Unix.select] multiplexing (safe
    because {!recv} never reads ahead of the current frame). *)
val read_fd : conn -> Unix.file_descr

(** Number of packets a [len]-byte message needs (at least 1). *)
val packets_of_len : packet_bytes:int -> int -> int

(** Send one message (split into packets).
    @raise Dead_peer if the peer is gone. *)
val send : conn -> string -> unit

(** [send_floats c x y arr] sends [arr] as one float message: raw
    little-endian IEEE-754 bits (flag bit 1 packets), bit-exact, no
    [Marshal], behind a header carrying [x], [y] and the element
    count.  The elements count under [payload_bytes_*], the header as
    framing; never zero-copy here. *)
val send_floats : conn -> int -> int -> float array -> unit

(** A message off a link: bytes, or a float message with the two ints
    of its header. *)
type message = Bytes_msg of string | Floats_msg of int * int * float array

(** The array a float header's element count sizes.
    @raise Protocol_error on a negative or absurd count. *)
val float_array : int -> float array

(** [check_floats arr ~got ~last]: a float message's packets or frames
    have carried [got] elements so far, all of them if [last].
    @raise Protocol_error if that disagrees with [arr]'s length. *)
val check_floats : float array -> got:int -> last:bool -> unit

(** Receive one message, on whichever plane it was sent.  Reads are
    exact — nothing is buffered ahead, so [Unix.select] readiness means
    a header is in flight.
    @raise End_of_file on a clean EOF at a frame boundary.
    @raise Truncated on EOF mid-frame.
    @raise Protocol_error on a malformed message. *)
val recv_message : conn -> message

(** {!recv_message} for a byte message.
    @raise Protocol_error if a float message arrives. *)
val recv : conn -> string

(** Non-blocking readiness probe: [Unix.select] with a 0 timeout, so
    each call is a syscall and is never spun on.  To test many links
    use one [select] over all of them; to wait, block in [select]. *)
val input_ready : conn -> bool

val close : conn -> unit
