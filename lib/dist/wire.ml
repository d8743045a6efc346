(** Framed byte-stream transport between PEs.

    This is the real counterpart of [Repro_mp.Transport]'s cost
    profiles: where the simulator {e charges} pack/latency/unpack
    nanoseconds, this module actually moves bytes between processes
    over a [socketpair] (or any pair of file descriptors) and counts
    what it moved.

    Messages are split into length-prefixed {e packets} (Eden/GUM
    split graph messages into packets the same way, paper Sec. III-B):

    {v
      packet := u32 chunk-length (big-endian) | u8 flags | chunk bytes
      flags  := bit 0 set on the last packet of a message
                bit 1 set on every packet of a float message
    v}

    A zero-length message is one empty packet with the last-flag set.
    A float message's chunks hold its elements as raw little-endian
    IEEE-754 bits, and its first chunk opens with a header of three
    little-endian int64s: two fields of the sender's ([x], [y]) and
    the element count, which the packets must match.
    Reads are exact (header, then chunk): the connection never buffers
    ahead, so [Unix.select] readiness on the descriptor is equivalent
    to "a message header is in flight". *)

exception Truncated of string
exception Dead_peer of string
exception Protocol_error of string

module M = Repro_metrics.Metrics

(* Transport errors are counted in the default registry before they
   are raised, so a snapshot shows them even when the raise is caught
   and retried/absorbed upstream.  Lazy: registration takes the
   registry mutex, raise sites must not. *)
let error_counter kind =
  lazy
    (M.counter ~help:"Transport errors by kind"
       ~labels:[ ("kind", kind) ]
       "repro_wire_errors_total")

let truncated_errors = error_counter "truncated"
let dead_peer_errors = error_counter "dead_peer"
let protocol_errors = error_counter "protocol"

let raise_truncated msg =
  M.incr (Lazy.force truncated_errors);
  raise (Truncated msg)

let raise_dead_peer msg =
  M.incr (Lazy.force dead_peer_errors);
  raise (Dead_peer msg)

let raise_protocol msg =
  M.incr (Lazy.force protocol_errors);
  raise (Protocol_error msg)

let header_bytes = 5
let default_packet_bytes = 32 * 1024
let float_header_bytes = 24

(* Refuse absurd chunk lengths: a corrupted or misaligned stream would
   otherwise make us try to allocate gigabytes. *)
let max_chunk_bytes = 64 * 1024 * 1024

type counters = {
  mutable msgs_sent : int;
  mutable msgs_recv : int;
  mutable bytes_sent : int;  (** on-wire bytes, packet headers included *)
  mutable bytes_recv : int;
  mutable packets_sent : int;
  mutable packets_recv : int;
  mutable payload_bytes_sent : int;
      (** message payload bytes only — no packet/frame headers.  The
          [bytes_*] counters measure what the transport moved; these
          measure what the caller asked it to move, so framing overhead
          is the difference. *)
  mutable payload_bytes_recv : int;
  mutable zero_copy_bytes_sent : int;
      (** payload bytes that crossed without an intermediate buffer:
          float frames written element-by-element straight into shared
          ring memory.  Always 0 on the socketpair transport (its float
          frames still stage through the packet scratch buffer). *)
  mutable zero_copy_bytes_recv : int;
  mutable pack_ns : int;  (** serialisation time, filled by {!Message} *)
  mutable unpack_ns : int;
}

let fresh_counters () =
  {
    msgs_sent = 0;
    msgs_recv = 0;
    bytes_sent = 0;
    bytes_recv = 0;
    packets_sent = 0;
    packets_recv = 0;
    payload_bytes_sent = 0;
    payload_bytes_recv = 0;
    zero_copy_bytes_sent = 0;
    zero_copy_bytes_recv = 0;
    pack_ns = 0;
    unpack_ns = 0;
  }

(* One message counted on [k]: [packets] packets or frames, whose
   headers took [framing] bytes, around [payload] bytes of payload. *)
let count_sent k ~packets ~framing payload =
  k.msgs_sent <- k.msgs_sent + 1;
  k.packets_sent <- k.packets_sent + packets;
  k.bytes_sent <- k.bytes_sent + payload + framing;
  k.payload_bytes_sent <- k.payload_bytes_sent + payload

let count_recv k ~packets ~framing payload =
  k.msgs_recv <- k.msgs_recv + 1;
  k.packets_recv <- k.packets_recv + packets;
  k.bytes_recv <- k.bytes_recv + payload + framing;
  k.payload_bytes_recv <- k.payload_bytes_recv + payload

(* Per-link counter samples ([Shm_ring] reuses this for its conns). *)
let samples_of_counters ~labels (k : counters) =
  let c name help v = M.c_sample ~help ~labels name (float_of_int v) in
  [
    c "repro_wire_msgs_sent_total" "Messages sent on this link" k.msgs_sent;
    c "repro_wire_msgs_recv_total" "Messages received on this link" k.msgs_recv;
    c "repro_wire_bytes_sent_total" "On-wire bytes sent, framing included"
      k.bytes_sent;
    c "repro_wire_bytes_recv_total" "On-wire bytes received, framing included"
      k.bytes_recv;
    c "repro_wire_packets_sent_total" "Packets sent" k.packets_sent;
    c "repro_wire_packets_recv_total" "Packets received" k.packets_recv;
    c "repro_wire_payload_bytes_sent_total" "Payload bytes sent (no framing)"
      k.payload_bytes_sent;
    c "repro_wire_payload_bytes_recv_total" "Payload bytes received (no framing)"
      k.payload_bytes_recv;
    c "repro_wire_zero_copy_bytes_sent_total"
      "Payload bytes sent without an intermediate copy" k.zero_copy_bytes_sent;
    c "repro_wire_zero_copy_bytes_recv_total"
      "Payload bytes received without an intermediate copy" k.zero_copy_bytes_recv;
    c "repro_wire_pack_ns_total" "Serialisation time" k.pack_ns;
    c "repro_wire_unpack_ns_total" "Deserialisation time" k.unpack_ns;
  ]

(* Register a link's counters as a default-registry collector; the
   returned token must be removed at close (which retires the final
   totals into the registry).  Labelled by transport only, so every
   link of a transport, open or retired, folds into one series and the
   registry stays the same size however many links come and go. *)
let add_link_collector ~transport k =
  let labels = [ ("transport", transport) ] in
  M.add_collector ~name:("wire-" ^ transport) (fun () ->
      samples_of_counters ~labels k)

type conn = {
  read_fd : Unix.file_descr;
  write_fd : Unix.file_descr;
  packet_bytes : int;
  counters : counters;
  header : Bytes.t;  (** scratch for one packet header *)
  out : Bytes.t;  (** scratch for one whole outgoing packet *)
  mutable mtoken : M.collector option;  (** per-link metrics collector *)
}

(* A worker whose coordinator died mid-send must see EPIPE as an
   exception, not a fatal signal. *)
let ignore_sigpipe =
  lazy
    (match Sys.os_type with
    | "Unix" -> ( try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
    | _ -> ())

let create ?(packet_bytes = default_packet_bytes) ~read_fd ~write_fd () =
  if packet_bytes < 1 then
    invalid_arg "Wire.create: packet_bytes must be >= 1";
  Lazy.force ignore_sigpipe;
  let counters = fresh_counters () in
  {
    read_fd;
    write_fd;
    packet_bytes;
    counters;
    header = Bytes.create header_bytes;
    out = Bytes.create (header_bytes + float_header_bytes + max 8 packet_bytes);
    mtoken = Some (add_link_collector ~transport:"sock" counters);
  }

let counters c = c.counters
let read_fd c = c.read_fd

(* ---------------- packet headers ---------------- *)

(* Bit 1 marks a packet of a float message (the zero-Marshal bulk-data
   plane, see {!send_floats}).  A message whose packets switch planes
   is a protocol error, so the two planes can never be silently
   confused. *)
let flag_last = 1

let flag_floats = 2

let put_header ?(floats = false) b ~pos ~len ~last =
  Bytes.set b pos (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b (pos + 1) (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b (pos + 2) (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b (pos + 3) (Char.chr (len land 0xff));
  Bytes.set b (pos + 4)
    (Char.chr
       ((if last then flag_last else 0) lor if floats then flag_floats else 0))

let get_header s ~pos =
  let b i = Char.code s.[pos + i] in
  let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  let flags = b 4 in
  if flags land lnot (flag_last lor flag_floats) <> 0 then
    raise_protocol (Printf.sprintf "unknown packet flags 0x%02x" flags);
  if len > max_chunk_bytes then
    raise_protocol (Printf.sprintf "oversized packet chunk (%d bytes)" len);
  (len, flags land flag_last <> 0, flags land flag_floats <> 0)

let packets_of_len ~packet_bytes len =
  if len = 0 then 1 else (len + packet_bytes - 1) / packet_bytes

(* ---------------- descriptor IO ---------------- *)

let rec write_all fd b pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd b pos len with
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
          raise_dead_peer "peer closed the connection during send"
    in
    write_all fd b (pos + n) (len - n)
  end

(* Read exactly [len] bytes; [what] names the piece for error
   messages.  EOF before the first byte of a message's first header
   ([first]) is a clean shutdown at a frame boundary; anywhere else it
   is mid-frame. *)
let read_exact ?(first = false) fd b pos len ~what =
  let got = ref 0 in
  while !got < len do
    let n =
      try Unix.read fd b (pos + !got) (len - !got) with
      | Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
    in
    if n = 0 then
      if first && !got = 0 then raise End_of_file
      else raise_truncated (Printf.sprintf "peer closed mid-frame (reading %s)" what);
    got := !got + n
  done

let send c payload =
  let len = String.length payload in
  let npk = packets_of_len ~packet_bytes:c.packet_bytes len in
  let src = ref 0 in
  for p = 0 to npk - 1 do
    let chunk = min c.packet_bytes (len - !src) in
    (* one write per packet: header and chunk coalesced through the
       scratch buffer — the copy is far cheaper than a second syscall
       and halves the kernel's per-skb buffer accounting *)
    put_header c.out ~pos:0 ~len:chunk ~last:(p = npk - 1);
    Bytes.blit_string payload !src c.out header_bytes chunk;
    write_all c.write_fd c.out 0 (header_bytes + chunk);
    src := !src + chunk
  done;
  count_sent c.counters ~packets:npk ~framing:(npk * header_bytes) len

(* Float payloads travel as raw little-endian IEEE-754 bits, skipping
   [Marshal] entirely: bit-exact by construction (including NaN
   payloads and signed zeros) and with no graph-walk cost.  On this
   transport the floats still stage through the packet scratch buffer
   — the copy the shm ring avoids — so [zero_copy_bytes_*] stays 0;
   the framing matches the ring's so that {!Message} runs one code
   path over both transports.  The float header is framing: only the
   elements count as payload. *)
let send_floats c x y (arr : float array) =
  let total = Array.length arr in
  let per_packet = max 1 (c.packet_bytes / 8) in
  let npk = packets_of_len ~packet_bytes:per_packet total in
  let src = ref 0 in
  for p = 0 to npk - 1 do
    let n = min per_packet (total - !src) in
    (* the first chunk opens with the float header *)
    let pos = if p = 0 then header_bytes + float_header_bytes else header_bytes in
    put_header c.out ~pos:0
      ~len:(pos - header_bytes + (n * 8))
      ~last:(p = npk - 1) ~floats:true;
    if p = 0 then begin
      Bytes.set_int64_le c.out header_bytes (Int64.of_int x);
      Bytes.set_int64_le c.out (header_bytes + 8) (Int64.of_int y);
      Bytes.set_int64_le c.out (header_bytes + 16) (Int64.of_int total)
    end;
    for i = 0 to n - 1 do
      Bytes.set_int64_le c.out
        (pos + (i * 8))
        (Int64.bits_of_float (Array.unsafe_get arr (!src + i)))
    done;
    write_all c.write_fd c.out 0 (pos + (n * 8));
    src := !src + n
  done;
  count_sent c.counters ~packets:npk
    ~framing:((npk * header_bytes) + float_header_bytes)
    (total * 8)

type message = Bytes_msg of string | Floats_msg of int * int * float array

(* A float message's array, sized by its header's element count. *)
let float_array count =
  if count < 0 || count > Sys.max_array_length then
    raise_protocol (Printf.sprintf "float header counts %d elements" count);
  Array.create_float count

let check_floats arr ~got ~last =
  let n = Array.length arr in
  if got > n || (last && got < n) then
    raise_protocol
      (Printf.sprintf "float header counts %d elements, its packets %d" n got)

(* The one receive: the first packet's flags say which plane the
   message is on, and every later packet must be on the same one. *)
let recv_message c =
  let buf = Buffer.create 256 in
  let x = ref 0 and y = ref 0 and arr = ref [||] and got = ref 0 in
  let npk = ref 0 and floats = ref false and last = ref false in
  while not !last do
    read_exact ~first:(!npk = 0) c.read_fd c.header 0 header_bytes ~what:"packet header";
    let len, l, fl = get_header (Bytes.unsafe_to_string c.header) ~pos:0 in
    if !npk > 0 && fl <> !floats then raise_protocol "a message switched planes";
    floats := fl;
    incr npk;
    last := l;
    let chunk = Bytes.create len in
    read_exact c.read_fd chunk 0 len ~what:"packet chunk";
    if not fl then Buffer.add_bytes buf chunk
    else begin
      let pos = if !npk = 1 then float_header_bytes else 0 in
      if len < pos || (len - pos) mod 8 <> 0 then
        raise_protocol (Printf.sprintf "floats packet of %d bytes" len);
      if !npk = 1 then begin
        x := Int64.to_int (Bytes.get_int64_le chunk 0);
        y := Int64.to_int (Bytes.get_int64_le chunk 8);
        arr := float_array (Int64.to_int (Bytes.get_int64_le chunk 16))
      end;
      let n = (len - pos) / 8 in
      check_floats !arr ~got:(!got + n) ~last:l;
      for i = 0 to n - 1 do
        Array.unsafe_set !arr (!got + i)
          (Int64.float_of_bits (Bytes.get_int64_le chunk (pos + (i * 8))))
      done;
      got := !got + n
    end
  done;
  count_recv c.counters ~packets:!npk
    ~framing:((!npk * header_bytes) + if !floats then float_header_bytes else 0)
    (if !floats then 8 * !got else Buffer.length buf);
  if !floats then Floats_msg (!x, !y, !arr) else Bytes_msg (Buffer.contents buf)

let recv c =
  match recv_message c with
  | Bytes_msg s -> s
  | Floats_msg _ -> raise_protocol "float message where a byte message was expected"

(* One syscall per call, so never spin on it: test many links with one
   [select], and wait by blocking in one. *)
let input_ready c =
  match Unix.select [ c.read_fd ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> true

let close c =
  (match c.mtoken with
  | Some tok ->
      c.mtoken <- None;
      M.remove_collector tok
  | None -> ());
  (try Unix.close c.read_fd with Unix.Unix_error _ -> ());
  if c.write_fd <> c.read_fd then
    try Unix.close c.write_fd with Unix.Unix_error _ -> ()
