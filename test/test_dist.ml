(** Tests for the multi-process executor (lib/dist): wire framing
    properties and error paths of [Wire.send]/[Wire.recv] over a real
    socketpair, and end-to-end multi-process runs checked bit-for-bit
    against the sequential references.

    The multi-process cases re-execute this very test binary as the
    worker ([Test_main] installs [Repro_dist.Worker.maybe_run] before
    Alcotest sees argv). *)

open Alcotest
module Wire = Repro_dist.Wire
module Link = Repro_dist.Link
module Message = Repro_dist.Message
module Shm = Repro_dist.Shm_ring
module Farm = Repro_dist.Farm
module Workload = Repro_dist.Workload
module Chrome = Repro_trace.Chrome
module Profile = Repro_exec.Profile

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Framing: [Wire.send] and [Wire.recv] over a socketpair              *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      close a;
      close b)
    (fun () -> f a b)

let conn_of fd = Wire.create ~read_fd:fd ~write_fd:fd ()

(* A connected pair of conns, closed afterwards; the first sends in
   [packet_bytes] packets. *)
let with_conns ~packet_bytes f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Wire.create ~packet_bytes ~read_fd:a ~write_fd:a () in
  let cb = conn_of b in
  Fun.protect
    ~finally:(fun () ->
      Wire.close ca;
      Wire.close cb)
    (fun () -> f ca cb)

let encoded_len ~packet_bytes len =
  len + (Wire.header_bytes * Wire.packets_of_len ~packet_bytes len)

let payload_of_len len = String.init len (fun i -> Char.chr (i land 0xff))

(* One message through [send] and [recv]: the payload received, the
   bytes [send] wrote, and whether any input is left over.  The kernel
   charges every packet's write against the socket buffer, so a message
   of many small packets can fill it: the sender runs on its own
   domain.  Once [recv] returns, the receiving side is shut down, so a
   sender still holding packets fails instead of blocking. *)
let round_trip ~packet_bytes s =
  with_conns ~packet_bytes (fun ca cb ->
      let sender = Domain.spawn (fun () -> Wire.send ca s) in
      let got = Wire.recv cb in
      let leftover = Wire.input_ready cb in
      Unix.shutdown (Wire.read_fd cb) Unix.SHUTDOWN_RECEIVE;
      Domain.join sender;
      (got, (Wire.counters ca).Wire.bytes_sent, leftover))

(* Edge sizes around the packet boundary, including the empty message
   and multi-packet messages. *)
let codec_edge_cases () =
  List.iter
    (fun packet_bytes ->
      List.iter
        (fun len ->
          let s = payload_of_len len in
          let got, sent, leftover = round_trip ~packet_bytes s in
          check int
            (Printf.sprintf "encoded length (pb=%d len=%d)" packet_bytes len)
            (encoded_len ~packet_bytes len)
            sent;
          check string "payload round-trips" s got;
          check bool "consumed to the end" false leftover)
        [
          0; 1; packet_bytes - 1; packet_bytes; packet_bytes + 1;
          2 * packet_bytes; (3 * packet_bytes) + 7;
        ])
    [ 1; 7; 64 ]

let codec_qcheck =
  QCheck.Test.make ~name:"wire codec round-trips arbitrary payloads"
    ~count:200
    QCheck.(pair (int_bound 79) (string_of_size Gen.(0 -- 300)))
    (fun (pb, s) ->
      (* bounds from 0, as QCheck's shrinker assumes *)
      let packet_bytes = pb + 1 in
      let got, sent, leftover = round_trip ~packet_bytes s in
      got = s
      && (not leftover)
      && sent = encoded_len ~packet_bytes (String.length s))

(* Back-to-back messages arrive in sequence from one stream. *)
let codec_stream () =
  with_conns ~packet_bytes:9 (fun ca cb ->
      let msgs = [ ""; "a"; payload_of_len 25; payload_of_len 9; "end" ] in
      List.iter (Wire.send ca) msgs;
      List.iter
        (fun expected ->
          check string "message in stream order" expected (Wire.recv cb))
        msgs;
      check bool "stream fully consumed" false (Wire.input_ready cb);
      check int "both ends agree on bytes" (Wire.counters ca).Wire.bytes_sent
        (Wire.counters cb).Wire.bytes_recv)

(* The bytes [send] writes for one message. *)
let wire_bytes ~packet_bytes s =
  with_conns ~packet_bytes (fun ca cb ->
      Wire.send ca s;
      let n = encoded_len ~packet_bytes (String.length s) in
      let buf = Bytes.create n in
      let rec fill got =
        if got < n then fill (got + Unix.read (Wire.read_fd cb) buf got (n - got))
      in
      fill 0;
      Bytes.to_string buf)

(* Every non-empty strict prefix of a message is an incomplete frame
   ([recv] reads an empty one as a clean end of stream). *)
let codec_truncation () =
  let enc = wire_bytes ~packet_bytes:7 (payload_of_len 20) in
  for cut = 1 to String.length enc - 1 do
    with_socketpair (fun a b ->
        check int "prefix written" cut (Unix.write_substring a enc 0 cut);
        Unix.close a;
        match Wire.recv (conn_of b) with
        | _ -> failf "prefix of %d bytes decoded" cut
        | exception Wire.Truncated _ -> ())
  done

let codec_rejects_bad_flags () =
  with_socketpair (fun a b ->
      (* length 0, flags with an unknown bit set *)
      check int "header written" 5
        (Unix.write_substring a "\x00\x00\x00\x00\x04" 0 5);
      Unix.close a;
      match Wire.recv (conn_of b) with
      | _ -> fail "unknown flags accepted"
      | exception Wire.Protocol_error _ -> ())

let packets_of_len_cases () =
  check int "empty message still needs a packet" 1
    (Wire.packets_of_len ~packet_bytes:8 0);
  check int "exact fit" 1 (Wire.packets_of_len ~packet_bytes:8 8);
  check int "one byte over" 2 (Wire.packets_of_len ~packet_bytes:8 9);
  check int "many" 4 (Wire.packets_of_len ~packet_bytes:8 25)

(* Small and empty messages fit the kernel buffer, so one thread can
   send then receive; the counters on both ends must agree with the
   framing arithmetic. *)
let fd_roundtrip_counters () =
  with_socketpair (fun a b ->
      let ca = conn_of a and cb = conn_of b in
      Wire.send ca "";
      Wire.send ca "hello";
      check string "empty message" "" (Wire.recv cb);
      check string "payload" "hello" (Wire.recv cb);
      let sa = Wire.counters ca and sb = Wire.counters cb in
      check int "msgs sent" 2 sa.Wire.msgs_sent;
      check int "msgs recv" 2 sb.Wire.msgs_recv;
      check int "packets sent" 2 sa.Wire.packets_sent;
      check int "bytes include headers"
        (5 + (2 * Wire.header_bytes))
        sa.Wire.bytes_sent;
      check int "both ends agree on bytes" sa.Wire.bytes_sent
        sb.Wire.bytes_recv)

(* A ~200 KB message spans many packets and overflows the socketpair
   buffer, so the receiver runs on its own domain. *)
let fd_multi_packet () =
  with_socketpair (fun a b ->
      let packet_bytes = 4096 in
      let ca = Wire.create ~packet_bytes ~read_fd:a ~write_fd:a ()
      and cb = Wire.create ~packet_bytes ~read_fd:b ~write_fd:b () in
      let big = payload_of_len 200_000 in
      let reader = Domain.spawn (fun () -> Wire.recv cb) in
      Wire.send ca big;
      let got = Domain.join reader in
      check bool "multi-packet payload intact" true (String.equal big got);
      let sa = Wire.counters ca in
      check int "packet count"
        (Wire.packets_of_len ~packet_bytes 200_000)
        sa.Wire.packets_sent;
      check int "wire bytes"
        (encoded_len ~packet_bytes 200_000)
        sa.Wire.bytes_sent)

let fd_clean_eof () =
  with_socketpair (fun a b ->
      let ca = conn_of a in
      Unix.close b;
      match Wire.recv ca with
      | _ -> fail "recv succeeded on a closed peer"
      | exception End_of_file -> ())

let fd_truncated_frame () =
  with_socketpair (fun a b ->
      let ca = conn_of a in
      (* half a header, then the peer dies *)
      let n = Unix.write_substring b "\x00\x00\x01" 0 3 in
      check int "partial header written" 3 n;
      Unix.close b;
      match Wire.recv ca with
      | _ -> fail "recv decoded a truncated frame"
      | exception Wire.Truncated _ -> ())

let fd_dead_peer_send () =
  with_socketpair (fun a b ->
      let ca = conn_of a in
      Unix.close b;
      match Wire.send ca "anyone there?" with
      | () -> fail "send succeeded with no peer"
      | exception Wire.Dead_peer _ -> ())

(* [repro_wire_errors_total{kind}] in the default registry. *)
let wire_errors kind =
  let module M = Repro_metrics.Metrics in
  match
    M.find ~labels:[ ("kind", kind) ] (M.snapshot ()) "repro_wire_errors_total"
  with
  | Some { M.s_value = M.Counter v; _ } -> v
  | _ -> 0.

(* [n] as the 8 little-endian bytes of a float header field. *)
let le64 n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.to_string b

(* One packet, last and floats flags set, of chunk [chunk]. *)
let float_packet chunk =
  let n = String.length chunk in
  let b = Bytes.create 5 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.set b 4 '\x03';
  Bytes.to_string b ^ chunk

(* [recv ()] fails with the typed error of [kind], [Wire.Protocol_error]
   or [Wire.Truncated], and bumps its counter once. *)
let check_wire_error ?(kind = "protocol") what recv =
  let before = wire_errors kind in
  (match recv () with
  | _ -> failf "%s was accepted" what
  | exception Wire.Protocol_error _ when kind = "protocol" -> ()
  | exception Wire.Truncated _ when kind = "truncated" -> ());
  check (float 0.)
    (Printf.sprintf "%s: repro_wire_errors_total{kind=%s} bumped once" what kind)
    (before +. 1.) (wire_errors kind)

(* A float message's first packet opens with its header, two ints and
   the element count: a first chunk of 12 bytes truncates it, and the
   elements after a whole header must fill 8-byte words.  Each is a
   protocol error, and like every transport error it is counted. *)
let fd_float_frame_bad_length () =
  List.iter
    (fun (what, frame) ->
      with_socketpair (fun a b ->
          check int "frame written" (String.length frame)
            (Unix.write_substring a frame 0 (String.length frame));
          check_wire_error what (fun () -> Wire.recv_message (conn_of b))))
    [
      ("a 12-byte float header", float_packet (String.make 12 '\x00'));
      ( "12 bytes of elements",
        float_packet (le64 7 ^ le64 0 ^ le64 2 ^ String.make 12 '\x00') );
    ]

(* Malformed float messages, and a byte message where a ring row is
   due, each fail with a typed, counted error: an element count the
   packets disagree with, a header cut short, EOF inside a header. *)
let sock_malformed_messages () =
  let elements n = String.concat "" (List.init n le64) in
  List.iter
    (fun (what, kind, bytes) ->
      with_socketpair (fun a b ->
          check int "bytes written" (String.length bytes)
            (Unix.write_substring a bytes 0 (String.length bytes));
          Unix.close a;
          check_wire_error ~kind what (fun () -> Wire.recv_message (conn_of b))))
    [
      ( "2 elements counted as 3", "protocol",
        float_packet (le64 7 ^ le64 0 ^ le64 3 ^ elements 2) );
      ( "2 elements counted as 1", "protocol",
        float_packet (le64 7 ^ le64 0 ^ le64 1 ^ elements 2) );
      ("a float header of two fields", "protocol", float_packet (le64 7 ^ le64 0));
      ( "EOF inside a float header", "truncated",
        String.sub (float_packet (le64 7 ^ le64 0 ^ le64 0)) 0 15 );
    ];
  with_socketpair (fun a b ->
      Wire.send (conn_of a) "x";
      check_wire_error "a byte message on a ring edge" (fun () ->
          Message.recv_row (Link.Sock (conn_of b))))

(* ------------------------------------------------------------------ *)
(* Sock readiness: one blocking select per wait, one per pump pass     *)

(* Two coordinator-side sock links, and the worker ends that feed them. *)
let with_sock_links f =
  with_socketpair (fun a a' ->
      with_socketpair (fun b b' ->
          f
            [| Link.Sock (conn_of a); Link.Sock (conn_of b) |]
            (Link.Sock (conn_of a'), Link.Sock (conn_of b'))))

let elapsed_s f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let sock_wait_any () =
  with_sock_links (fun links (_, peer_b) ->
      Message.send_to_coordinator peer_b Message.Ready;
      let dt = elapsed_s (fun () -> Link.wait_any ~timeout:5.0 links) in
      check bool "woke for the second link, well before the timeout" true
        (dt < 1.0);
      check (list int) "only the second link is ready" [ 1 ] (Link.ready links);
      (match Message.recv_to_coordinator links.(1) with
      | Message.Ready -> ()
      | _ -> fail "expected the queued Ready");
      check (list int) "drained" [] (Link.ready links);
      let dt = elapsed_s (fun () -> Link.wait_any ~timeout:0.05 links) in
      check bool
        (Printf.sprintf "nothing queued: returns after about the timeout (%.3f s)"
           dt)
        true
        (dt >= 0.04 && dt < 1.0))

(* One link holds two queued messages, a float result (one message,
   its header naming the task) and a Ready: a pump pass takes one
   message per ready link, so the second must still be there for the
   next. *)
let sock_pump_keeps_queued () =
  with_sock_links (fun links (peer_a, _) ->
      Message.send_result peer_a ~task_id:7 ~round:0 (Message.Floats_p [| 1.5 |]);
      Message.send_to_coordinator peer_a Message.Ready;
      let passes = ref 0 and got = ref [] in
      let rec pump () =
        match Link.ready links with
        | [] -> ()
        | ready ->
            incr passes;
            List.iter
              (fun i -> got := (i, Message.recv_to_coordinator links.(i)) :: !got)
              ready;
            pump ()
      in
      pump ();
      check int "one pass per queued message" 2 !passes;
      match List.rev !got with
      | [
       (0, Message.Result { task_id = 7; round = 0; payload = Floats_p [| 1.5 |] });
       (0, Message.Ready);
      ] ->
          ()
      | l -> failf "expected Result then Ready on link 0, got %d messages" (List.length l))

(* ------------------------------------------------------------------ *)
(* SPSC ring model (the distilled handshake behind the shm frames)     *)

module Plain_word = struct
  type t = int ref

  let load r = !r
  let store r v = r := v
end

module Spsc = Shm.Spsc (Plain_word)

let spsc_of_cap cap =
  let slots = Array.make cap 0 in
  Spsc.create ~cap ~tail:(ref 0) ~head:(ref 0) ~get:(Array.get slots)
    ~set:(Array.set slots)

(* Random push/pop interleavings agree with a Queue reference at every
   step, for capacities small enough that the cursors lap the ring many
   times (wrap-around at every [mod cap] point). *)
let spsc_qcheck =
  QCheck.Test.make ~name:"spsc ring agrees with a queue reference" ~count:400
    QCheck.(pair (int_bound 4) (list_of_size Gen.(0 -- 120) bool))
    (fun (c, ops) ->
      let cap = c + 1 in
      let r = spsc_of_cap cap in
      let q = Queue.create () in
      let counter = ref 0 in
      List.for_all
        (fun push ->
          if push then begin
            incr counter;
            let ok = Spsc.try_push r !counter in
            let fits = Queue.length q < cap in
            if fits then Queue.add !counter q;
            ok = fits && Spsc.length r = Queue.length q
          end
          else
            match (Spsc.try_pop r, Queue.take_opt q) with
            | Some v, Some w -> v = w && Spsc.length r = Queue.length q
            | None, None -> true
            | _ -> false)
        ops)

(* Deterministic lapping: a full-empty cycle at every offset, for a
   cursor range that crosses several multiples of the capacity. *)
let spsc_wrap_around () =
  List.iter
    (fun cap ->
      let r = spsc_of_cap cap in
      for base = 0 to 8 * cap do
        for i = 0 to cap - 1 do
          check bool "push into non-full ring" true
            (Spsc.try_push r ((base * cap) + i))
        done;
        check bool "full ring refuses" false (Spsc.try_push r (-1));
        check int "full length" cap (Spsc.length r);
        for i = 0 to cap - 1 do
          check (option int) "pop in FIFO order"
            (Some ((base * cap) + i))
            (Spsc.try_pop r)
        done;
        check (option int) "empty ring refuses" None (Spsc.try_pop r)
      done)
    [ 1; 2; 3; 7 ]

(* ------------------------------------------------------------------ *)
(* Shared-memory ring transport (in-process, both sides mapped)        *)

let with_shm_pair ?(ring_bytes = 4096) f =
  let path = Shm.create_segment ~ring_bytes () in
  Fun.protect
    ~finally:(fun () -> Shm.unlink_segment path)
    (fun () ->
      let da, db = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let a = Shm.attach ~path ~side:`A ~doorbell:da in
      let b = Shm.attach ~path ~side:`B ~doorbell:db in
      Fun.protect
        ~finally:(fun () ->
          Shm.close a;
          Shm.close b)
        (fun () -> f a b))

(* The next message on [c], which must be a byte message. *)
let shm_recv c =
  match Shm.recv_message c with
  | Wire.Bytes_msg s -> s
  | Wire.Floats_msg _ -> fail "a float message where bytes were sent"

(* Byte messages round-trip in both directions through one segment;
   the counters account for every frame header and padding byte. *)
let shm_roundtrip_counters () =
  with_shm_pair (fun a b ->
      let sizes = [ 0; 1; 7; 8; 9; 100; 1000; 2500 ] in
      List.iter
        (fun len ->
          let s = payload_of_len len in
          Shm.send a s;
          check string
            (Printf.sprintf "a->b payload of %d bytes" len)
            s (shm_recv b);
          Shm.send b s;
          check string
            (Printf.sprintf "b->a payload of %d bytes" len)
            s (shm_recv a))
        sizes;
      let total = List.fold_left ( + ) 0 sizes in
      let ca = Shm.counters a and cb = Shm.counters b in
      check int "msgs sent" (List.length sizes) ca.Wire.msgs_sent;
      check int "msgs recv" (List.length sizes) ca.Wire.msgs_recv;
      check int "payload bytes, no headers" total ca.Wire.payload_bytes_sent;
      check int "payload bytes received" total cb.Wire.payload_bytes_recv;
      check int "both ends agree on wire bytes" ca.Wire.bytes_sent
        cb.Wire.bytes_recv;
      check bool "frame headers counted" true (ca.Wire.bytes_sent > total);
      check int "bytes plane is not zero-copy" 0 ca.Wire.zero_copy_bytes_sent)

(* Float payloads cross the ring bit-for-bit — including NaN payload
   bits, signed zero, infinities and denormals — and are counted on
   the zero-copy plane. *)
let float_specials =
  [|
    0.0;
    -0.0;
    infinity;
    neg_infinity;
    nan;
    Int64.float_of_bits 0x7ff800000000beefL;
    (* quiet NaN with a payload *)
    Int64.float_of_bits 0xfff8000000000001L;
    (* negative quiet NaN *)
    4.9e-324;
    (* smallest denormal *)
    Float.max_float;
    Float.pi;
    -1.5e308;
  |]

let check_bits name expected got =
  check int "float arrays same length" (Array.length expected)
    (Array.length got);
  Array.iteri
    (fun i x ->
      check int
        (Printf.sprintf "%s: element %d bit pattern" name i)
        (Workload.float_bits x)
        (Workload.float_bits got.(i)))
    expected

(* The float messages both identity tests send: the specials, 300
   floats over several packets or frames, and none, each with two
   header fields, extremes among them. *)
let float_messages =
  [
    (7, -3, float_specials);
    (max_int, min_int, Array.init 300 (fun i -> Float.of_int i *. 0.1));
    (0, 1, [||]);
  ]

(* Each message arrives whole as one float message: its two header
   fields and its elements, bit for bit. *)
let check_float_messages what recv =
  List.iter
    (fun (x, y, arr) ->
      let name = Printf.sprintf "%s %d floats" what (Array.length arr) in
      match recv () with
      | Wire.Floats_msg (x', y', got) ->
          check (pair int int) (name ^ ": header fields") (x, y) (x', y');
          check_bits name arr got
      | Wire.Bytes_msg _ -> failf "%s: a byte message arrived" name)
    float_messages

let float_elements =
  List.fold_left (fun acc (_, _, arr) -> acc + Array.length arr) 0 float_messages

(* The header is framing: payload and zero-copy bytes are 8 per
   element, and the wire bytes add each packet's or frame's header and
   each message's 24-byte float header. *)
let check_float_counters what ~packet_header (c : Wire.counters) =
  let bytes = 8 * float_elements in
  check int (what ^ ": one message each") (List.length float_messages) c.Wire.msgs_sent;
  check int (what ^ ": floats count as payload") bytes c.Wire.payload_bytes_sent;
  check int (what ^ ": the float header is framing")
    (bytes + (packet_header * c.Wire.packets_sent) + (24 * c.Wire.msgs_sent))
    c.Wire.bytes_sent

let shm_float_identity () =
  with_shm_pair (fun a b ->
      List.iter (fun (x, y, arr) -> Shm.send_floats a x y arr) float_messages;
      check_float_messages "shm" (fun () -> Shm.recv_message b);
      let ca = Shm.counters a and cb = Shm.counters b in
      let bytes = 8 * float_elements in
      check int "zero-copy bytes sent" bytes ca.Wire.zero_copy_bytes_sent;
      check int "zero-copy bytes received" bytes cb.Wire.zero_copy_bytes_recv;
      check int "300 floats take 3 frames of a 4 kB ring" 5 ca.Wire.packets_sent;
      check_float_counters "shm" ~packet_header:8 ca;
      check int "both ends agree on wire bytes" ca.Wire.bytes_sent cb.Wire.bytes_recv)

(* The socketpair float plane must be bit-identical too (raw LE bits,
   not text), even though it copies through the scratch buffer; in
   64-byte packets, the header rides in the first one. *)
let sock_float_identity () =
  with_conns ~packet_bytes:64 (fun ca cb ->
      List.iter (fun (x, y, arr) -> Wire.send_floats ca x y arr) float_messages;
      check_float_messages "sock" (fun () -> Wire.recv_message cb);
      let c = Wire.counters ca in
      check int "sock float plane is copied, not zero-copy" 0 c.Wire.zero_copy_bytes_sent;
      check int "8 floats a packet" (2 + 38 + 1) c.Wire.packets_sent;
      check_float_counters "sock" ~packet_header:Wire.header_bytes c;
      check int "both ends agree on wire bytes" c.Wire.bytes_sent
        (Wire.counters cb).Wire.bytes_recv)

(* A message far larger than the ring streams through it: the producer
   blocks on the full ring (backpressure) until the consumer frees
   frames; the doorbell wakes the sleeping consumer mid-stream.  A
   second domain plays the producer. *)
let shm_backpressure_doorbell () =
  with_shm_pair ~ring_bytes:4096 (fun a b ->
      let big = payload_of_len 100_000 in
      let msgs = 20 in
      let producer =
        Domain.spawn (fun () ->
            for _ = 1 to msgs do
              Shm.send a big
            done)
      in
      for i = 1 to msgs do
        let got = shm_recv b in
        check bool
          (Printf.sprintf "streamed message %d intact" i)
          true (String.equal big got)
      done;
      Domain.join producer;
      check bool "no spurious extra input" false (Shm.input_ready b))

(* [words] published on the A-to-B ring of the segment at [path], as
   its producer would publish a frame: the words from the start of the
   ring's data, after its three control words (192 bytes), then the
   tail past them. *)
let publish_raw path words =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let map =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.int64 Bigarray.c_layout true [| -1 |]))
  in
  List.iteri (fun i w -> Bigarray.Array1.set map (24 + i) (Int64.of_int w)) words;
  Shm.Mapped_word.store { Shm.Mapped_word.words = map; idx = 0 } (8 * List.length words)

(* One float frame's words: its header word (kind 2, the last flag,
   its length in words), then [words]. *)
let float_frame ~last words =
  (2 lor (if last then 4 else 0) lor (List.length words lsl 3)) :: words

(* The shm twin of [sock_malformed_messages]: raw frames published by a
   producer that is gone, and a byte message on a ring edge. *)
let shm_malformed_messages () =
  List.iter
    (fun (what, kind, words) ->
      let path = Shm.create_segment ~ring_bytes:4096 () in
      Fun.protect
        ~finally:(fun () -> Shm.unlink_segment path)
        (fun () ->
          let da, db = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.close da;
          let b = Shm.attach ~path ~side:`B ~doorbell:db in
          Fun.protect
            ~finally:(fun () -> Shm.close b)
            (fun () ->
              publish_raw path words;
              check_wire_error ~kind what (fun () -> Shm.recv_message b))))
    [
      ("2 elements counted as 3", "protocol", float_frame ~last:true [ 7; 0; 3; 1; 2 ]);
      ("2 elements counted as 1", "protocol", float_frame ~last:true [ 7; 0; 1; 1; 2 ]);
      ("a float header of two fields", "protocol", float_frame ~last:true [ 7; 0 ]);
      ( "a peer gone inside a float message", "truncated",
        float_frame ~last:false [ 7; 0; 9; 1 ] );
    ];
  with_shm_pair (fun a b ->
      Shm.send a "x";
      check_wire_error "a byte message on a ring edge" (fun () ->
          Message.recv_row (Link.Shm b)))

(* Doorbell EOF: the peer vanishing is End_of_file at a message
   boundary, after any in-flight data has been drained. *)
let shm_peer_gone () =
  let path = Shm.create_segment ~ring_bytes:4096 () in
  Fun.protect
    ~finally:(fun () -> Shm.unlink_segment path)
    (fun () ->
      let da, db = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let a = Shm.attach ~path ~side:`A ~doorbell:da in
      let b = Shm.attach ~path ~side:`B ~doorbell:db in
      Shm.send a "parting gift";
      Shm.close a;
      (* the ring still holds the last message; EOF only after it *)
      check string "in-flight message survives the close" "parting gift"
        (shm_recv b);
      (match shm_recv b with
      | _ -> fail "recv succeeded with a dead peer and an empty ring"
      | exception End_of_file -> ());
      Shm.close b)

(* A producer blocked on a full ring notices its consumer die: a
   300 KiB send into a 256 KiB ring that nobody reads raises
   [Dead_peer] once the consumer closes its doorbell, instead of
   microsleeping forever.  The send runs on a domain and the test
   waits for it with a deadline, so a producer that never notices
   fails the test rather than hanging it (that domain is then left
   spinning, never joined). *)
let shm_full_ring_dead_consumer () =
  with_shm_pair ~ring_bytes:(256 * 1024) (fun a b ->
      let outcome = Atomic.make None in
      let producer =
        Domain.spawn (fun () ->
            Atomic.set outcome
              (Some
                 (match Shm.send a (payload_of_len (300 * 1024)) with
                 | () -> "returned"
                 | exception Wire.Dead_peer _ -> "dead peer"
                 | exception e -> Printexc.to_string e)))
      in
      Unix.sleepf 0.02;
      Shm.close b;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get outcome = None && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      match Atomic.get outcome with
      | None -> fail "send into a full ring still blocked 10 s after its consumer closed"
      | Some got ->
          Domain.join producer;
          check string "the send raises Dead_peer" "dead peer" got)

(* ------------------------------------------------------------------ *)
(* End-to-end multi-process runs                                       *)

let quick_run ?(procs = 2) ?trace ?transport (module W : Workload.S) =
  Farm.run ?trace ?transport ~procs ~size:W.quick_size (module W)

(* The directory ring segments are made in. *)
let ring_dir =
  lazy
    (let path = Shm.create_segment () in
     Shm.unlink_segment path;
     Filename.dirname path)

let ring_segments () =
  List.filter
    (String.starts_with ~prefix:"repro-ring-")
    (Array.to_list (Sys.readdir (Lazy.force ring_dir)))

let open_fds () = List.sort compare (Array.to_list (Sys.readdir "/proc/self/fd"))

(* A farm test's deadline, far above any passing case's time (the
   whole dist suite runs in about 2 s). *)
let deadline_s = 20.0

(* [f] leaves the process as it found it: the same open descriptors, no
   new ring segment, and no child process, whichever way its farms
   ended.  It runs under the deadline, which names the case [name]. *)
let leak_free name f () =
  let segments = ring_segments () in
  let fds = open_fds () in
  Deadline.within ~seconds:deadline_s name f;
  check (list string) "open fds as before" fds (open_fds ());
  check (list string) "no ring segment left" []
    (List.filter (fun s -> not (List.mem s segments)) (ring_segments ()));
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> failf "child process left behind (waitpid: %d)" pid

let farm_case name f = test_case name `Quick (leak_free name f)

(* Exactly-once ledger, the same over both transports: the coordinator
   schedules each task once, the workers between them execute each
   task once, every result asked for the PE's next task, and the
   combined result matches the sequential reference. *)
let exactly_once_ledger transport () =
  let module W = Workload.Sumeuler in
  let o = quick_run ~transport (module W) in
  check int "checksum" (W.reference ~size:W.quick_size) o.Farm.result;
  check int "two PEs reported" 2 (Array.length o.Farm.reports);
  check int "every task scheduled exactly once" o.Farm.tasks o.Farm.schedules;
  let executed =
    Array.fold_left
      (fun acc (r : Farm.pe_report) ->
        acc + r.Farm.stats.Repro_dist.Message.tasks_executed)
      0 o.Farm.reports
  in
  check int "every task executed exactly once" o.Farm.tasks executed;
  check int "every unpinned result asked for more" o.Farm.tasks o.Farm.fishes;
  Array.iter
    (fun (r : Farm.pe_report) ->
      let s = r.Farm.stats in
      (* The coordinator also counts the final [Stats] frame, which
         the worker's snapshot (taken before sending it) cannot. *)
      check bool "coordinator saw at least the worker's counted traffic" true
        (r.Farm.co.Wire.bytes_recv >= s.Repro_dist.Message.bytes_sent
        && s.Repro_dist.Message.bytes_sent > 0);
      check bool "private heap allocated" true
        (s.Repro_dist.Message.gc_minor_words > 0.))
    o.Farm.reports;
  check bool "work was timed" true (o.Farm.work_ns > 0)

(* An unpinned task costs two messages, its [Schedule] and its
   [Result], a float result (matmul's and mandelbrot's) included.  A
   PE's other messages are its Hello, Ready and Harvest; its Stats
   reply is sent after the snapshot that counts them. *)
let two_messages_per_task transport () =
  List.iter
    (fun (module W : Workload.S) ->
      List.iter
        (fun procs ->
          let o = quick_run ~procs ~transport (module W) in
          let what = Printf.sprintf "%s on %d PEs" W.name procs in
          let msgs =
            Array.fold_left
              (fun acc (r : Farm.pe_report) ->
                acc + r.stats.Message.msgs_sent + r.stats.Message.msgs_recv)
              0 o.Farm.reports
          in
          check int (what ^ ": checksum") (W.reference ~size:W.quick_size) o.Farm.result;
          check int (what ^ ": PE-side messages")
            ((2 * o.Farm.tasks) + (3 * procs))
            msgs;
          check int
            (what ^ ": results that found no task left")
            (min o.Farm.tasks (2 * procs))
            o.Farm.no_works)
        [ 1; 2; 3 ])
    (List.filter
       (fun (module W : Workload.S) -> W.name <> Workload.Apsp_w.name)
       Workload.all)

(* Every workload at its quick size; matmul at 67, where rows of 67
   columns leave three over after the kernel's four-column passes; and
   sumeuler over an empty range, one value, one block of 49 values and
   40 blocks of 50 or 51, each block one [Euler.sum_phi] call. *)
let reference_runs =
  List.map (fun (module W : Workload.S) -> ((module W : Workload.S), W.quick_size))
    Workload.all
  @ [ ((module Workload.Matmul : Workload.S), 67) ]
  @ List.map
      (fun size -> ((module Workload.Sumeuler : Workload.S), size))
      [ 0; 1; 49; 2_001 ]

let all_workloads_match_reference () =
  List.iter
    (fun ((module W : Workload.S), size) ->
      let o = Farm.run ~procs:2 ~size (module W) in
      check int
        (Printf.sprintf "%s size %d matches sequential reference" W.name size)
        (W.reference ~size) o.Farm.result)
    reference_runs

(* matmul on 1-4 PEs: each PE draws bt once and each task its own
   rows of a; at 1 and 3 rows some PEs get no task, and 67 leaves three
   columns past the kernel's four-column groups. *)
let matmul_sizes transport () =
  let module W = Workload.Matmul in
  List.iter
    (fun size ->
      let expect = W.reference ~size in
      List.iter
        (fun procs ->
          let o = Farm.run ~transport ~procs ~size (module W) in
          check int
            (Printf.sprintf "matmul size %d on %d PE(s) = reference" size procs)
            expect o.Farm.result)
        [ 1; 2; 3; 4 ])
    [ 1; 3; 67 ]

(* The same five workloads over the shared-memory rings, with three
   PEs, so that apsp's blocks and the demand placement span more than
   two links.  Exactly-once still holds, and the workloads that declare
   a float codec must move their results on the zero-copy plane. *)
let all_workloads_match_reference_shm () =
  List.iter
    (fun ((module W : Workload.S), size) ->
      let o = Farm.run ~procs:3 ~transport:Farm.Shm ~size (module W) in
      check int
        (Printf.sprintf "%s size %d matches sequential reference over shm"
           W.name size)
        (W.reference ~size) o.Farm.result;
      check int
        (W.name ^ ": every task scheduled exactly once")
        o.Farm.tasks o.Farm.schedules;
      let executed =
        Array.fold_left
          (fun acc (r : Farm.pe_report) ->
            acc + r.Farm.stats.Repro_dist.Message.tasks_executed)
          0 o.Farm.reports
      in
      check int
        (W.name ^ ": every task executed exactly once")
        o.Farm.tasks executed;
      let zero_copy =
        Array.fold_left
          (fun acc (r : Farm.pe_report) ->
            acc + r.Farm.stats.Repro_dist.Message.zero_copy_bytes_sent)
          0 o.Farm.reports
      in
      match W.result_blob with
      | Some _ ->
          check bool (W.name ^ ": results moved zero-copy") true (zero_copy > 0)
      | None -> check int (W.name ^ ": no zero-copy traffic") 0 zero_copy)
    reference_runs

(* Pinned rounds are placed by the coordinator alone: a pinned result
   asks for no task, so none is counted as a request or as finding
   nothing. *)
let check_pinned_run ~what (o : Farm.outcome) =
  check int (what ^ ": no fishes after pinned tasks") 0 o.Farm.fishes;
  check int (what ^ ": no no-works") 0 o.Farm.no_works

(* Blocks are left empty when there are more PEs than rows ((2, 1),
   (4, 3), (4, 1), (3, 2)); such a PE still reads every relayed pivot,
   or it would find one waiting after its task. *)
let apsp_shm_pinned () =
  let module W = Workload.Apsp_w in
  List.iter
    (fun (procs, size) ->
      let o = Farm.run ~transport:Farm.Shm ~procs ~size (module W) in
      let what = Printf.sprintf "apsp over shm procs=%d size=%d" procs size in
      check int what (W.reference ~size) o.Farm.result;
      check_pinned_run ~what o)
    [ (3, 17); (2, 1); (4, 3); (4, 1) ]

let farm_closures_shm () =
  let fs = List.map (fun x () -> x * 10) [ 1; 2; 3; 4; 5 ] in
  check (list int) "closure farm over shm" [ 10; 20; 30; 40; 50 ]
    (Farm.farm ~transport:Farm.Shm ~procs:2 fs)

(* Pinned rounds with awkward divisions: block count not a multiple of
   the PE count, and more PEs than rows, whose empty blocks still read
   every relayed pivot. *)
let apsp_awkward_shapes () =
  let module W = Workload.Apsp_w in
  List.iter
    (fun (procs, size) ->
      let o = Farm.run ~procs ~size (module W) in
      let what = Printf.sprintf "apsp procs=%d size=%d" procs size in
      check int what (W.reference ~size) o.Farm.result;
      check_pinned_run ~what o)
    [ (3, 17); (4, 3); (2, 1); (3, 2); (4, 1) ]

(* apsp is one pinned round, one task per PE, whose pivot rows travel
   PE to PE around the ring as they are made, one float message per
   row and edge.  PE [p] sends every row except those its right
   neighbour made (its own, and those it forwards) and receives every
   row except its own.  Its other messages are its Hello, Ready,
   Schedule, Result (one float message) and Harvest; on one PE there
   is no ring.  So PE [p] sends [2 + (n - own (p+1))] and receives
   [3 + (n - own p)], [5 p + 2 n (p - 1)] in all.  The coordinator's
   side of each PE's link carries no row: its Hello, Schedule and
   Harvest out, its Ready, Result and Stats in (the report is taken at
   Stats, before the Shutdown).  At 256 nodes on 3
   and 4 PEs, rows queue on the edge into a PE that falls behind while
   its left neighbour keeps sending. *)
let apsp_relays transport () =
  let module W = Workload.Apsp_w in
  List.iter
    (fun (procs, size) ->
      let o = Farm.run ~transport ~procs ~size (module W) in
      let what = Printf.sprintf "apsp procs=%d size=%d" procs size in
      check int (what ^ ": checksum") (W.reference ~size) o.Farm.result;
      check int (what ^ ": one round") 1 o.Farm.rounds;
      check int (what ^ ": one task per PE") procs o.Farm.tasks;
      let own p =
        let p = p mod procs in
        ((p + 1) * size / procs) - (p * size / procs)
      in
      Array.iter
        (fun (r : Farm.pe_report) ->
          let p = r.rep_pe in
          check int
            (Printf.sprintf "%s: PE %d messages sent" what p)
            (2 + (size - own (p + 1)))
            r.stats.Message.msgs_sent;
          check int
            (Printf.sprintf "%s: PE %d messages received" what p)
            (3 + (size - own p))
            r.stats.Message.msgs_recv;
          check int
            (Printf.sprintf "%s: coordinator sent PE %d no row" what p)
            3 r.co.Wire.msgs_sent;
          check int
            (Printf.sprintf "%s: coordinator got no row from PE %d" what p)
            3 r.co.Wire.msgs_recv)
        o.Farm.reports;
      let msgs =
        Array.fold_left
          (fun acc (r : Farm.pe_report) ->
            acc + r.stats.Message.msgs_sent + r.stats.Message.msgs_recv)
          0 o.Farm.reports
      in
      check int (what ^ ": PE-side messages")
        ((5 * procs) + (2 * size * (procs - 1)))
        msgs)
    (List.concat_map
       (fun procs -> List.map (fun size -> (procs, size)) [ 1; 3; 17; 256 ])
       [ 1; 2; 3; 4 ])

(* [Apsp_w.execute] in-process, against fake relays.  On one PE it
   relays every row, in order, and receives none; a pivot delivered
   out of order or of the wrong length is a clear error, never a wrong
   block. *)
let apsp_execute_checks_relays () =
  let module W = Workload.Apsp_w in
  let size = 17 in
  let sent = ref [] in
  let relay =
    {
      Repro_exec.Workload.send = (fun k row -> sent := (k, Array.length row) :: !sent);
      recv = (fun () -> fail "one PE received a relayed row");
    }
  in
  let st, tasks, pinned = W.start ~size ~procs:1 in
  check bool "pinned" true pinned;
  let block = W.execute ~size relay tasks.(0) in
  check int "one PE: checksum" (W.reference ~size) (W.finish st [| block |]);
  check (list (pair int int)) "one PE: every row relayed in order"
    (List.init size (fun k -> (k, size)))
    (List.rev !sent);
  (* PE 1 of 2 holds rows 2..3 of 4 and must receive pivot 0 first *)
  let _, tasks, _ = W.start ~size:4 ~procs:2 in
  let fake deliver =
    { Repro_exec.Workload.send = (fun _ _ -> ()); recv = (fun () -> deliver) }
  in
  let raises what deliver ~sub =
    match W.execute ~size:4 (fake deliver) tasks.(1) with
    | _ -> failf "%s: returned a block" what
    | exception Failure msg ->
        check bool (what ^ ": " ^ msg) true (contains ~sub msg)
  in
  raises "pivot out of order" (1, Array.make 4 1.0) ~sub:"expected pivot 0";
  raises "pivot of the wrong length" (0, Array.make 3 1.0) ~sub:"of 4 nodes, got pivot 0 of 3"

let more_procs_than_tasks () =
  let module W = Workload.Parfib in
  let o = Farm.run ~procs:5 ~size:12 (module W) in
  check int "parfib with idle PEs" (W.reference ~size:12) o.Farm.result

let farm_closures () =
  let captured = [ 3; 1; 4; 1; 5; 9 ] in
  let fs = List.map (fun x () -> (x, x * x)) captured in
  let got = Farm.farm ~procs:2 fs in
  check
    (list (pair int int))
    "closures ran remotely, results in order"
    (List.map (fun x -> (x, x * x)) captured)
    got

(* Tasks of 32 kB and results of 400 kB, larger than a ring (256 KiB).
   Each result streams through its ring while the coordinator receives
   it.  Pushing a whole round up front would fill a PE's ring while the
   PE blocks sending a result, so this would hang if the coordinator
   sent a PE more than it reads before its next result. *)
let farm_large_results transport () =
  let letter i = Char.chr (Char.code 'a' + (i mod 26)) in
  let fs =
    List.init 32 (fun i ->
        let input = String.make 32_768 (letter i) in
        fun () -> input ^ String.make (400_000 - String.length input) input.[0])
  in
  let got = Farm.farm ~transport ~procs:2 fs in
  check int "every result returned" 32 (List.length got);
  List.iteri
    (fun i s ->
      check bool
        (Printf.sprintf "result %d intact" i)
        true
        (String.equal (String.make 400_000 (letter i)) s))
    got

(* While the PEs work, the coordinator blocks ([select] over sock, the
   doorbell handshake over shm): its own CPU time stays a small share
   of the wall time.  Polling readiness instead costs about a third of
   it. *)
let coordinator_blocks transport () =
  let fs =
    List.init 200 (fun i () ->
        Unix.sleepf 0.002;
        i)
  in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let cpu0 = cpu () in
  let got = ref [] in
  let wall = elapsed_s (fun () -> got := Farm.farm ~transport ~procs:2 fs) in
  let used = cpu () -. cpu0 in
  check (list int) "results in order" (List.init 200 Fun.id) !got;
  if used >= 0.1 *. wall then
    failf "coordinator CPU %.3f s is %.0f%% of %.3f s wall" used
      (100. *. used /. wall) wall

(* A PE that cannot start its session (here: a workload its registry
   does not know) dies before [Ready]: the run fails at start-up, and
   every PE spawned is killed and reaped ({!leak_free} checks). *)
let dead_before_ready transport () =
  let module Unknown = struct
    include Workload.Parfib

    let name = "no-such-workload"
  end in
  match Farm.run ~transport ~procs:2 ~size:10 (module Unknown) with
  | _ -> fail "a run whose PEs cannot serve succeeded"
  | exception Failure msg ->
      check bool ("fails at start-up: " ^ msg) true
        (contains ~sub:"before Ready" msg)

(* A PE that dies mid-round is named with its own exit status.  Two
   PEs are primed with two tasks each, worker-major, so task 2 is the
   first that PE 1 runs; its [exit 3] closes PE 1's link, and the
   status comes from the reap that ends the run. *)
let pe_death_mid_round transport () =
  let fs = List.init 4 (fun i () -> if i = 2 then exit 3 else i) in
  match Farm.farm ~transport ~procs:2 fs with
  | _ -> fail "a farm whose PE exited mid-round succeeded"
  | exception Farm.Pe_died { pe; status } ->
      check int "the PE that ran the exiting closure" 1 pe;
      check bool "its exit code" true (status = Unix.WEXITED 3)

let rejects_bad_procs () =
  check_raises "procs = 0" (Invalid_argument "Farm.run: procs must be >= 1")
    (fun () ->
      ignore (Farm.run ~procs:0 ~size:10 (module Workload.Sumeuler)))

(* ------------------------------------------------------------------ *)
(* Timeline and measurement                                            *)

let trace_spans () =
  let o = quick_run ~trace:true (module Workload.Sumeuler) in
  let spans = Farm.spans o in
  check bool "spans recorded" true (spans <> []);
  let allowed = [ "schedule"; "wire"; "unpack"; "task"; "pack" ] in
  List.iter
    (fun (s : Chrome.span) ->
      check bool ("known span name: " ^ s.name) true (List.mem s.name allowed);
      check bool "span is an ordered slice" true
        (match s.dur_ns with Some d -> d >= 0 | None -> false);
      check bool "track is a PE or the coordinator" true
        (s.tid >= 0 && s.tid <= o.Farm.procs))
    spans;
  List.iter
    (fun name ->
      check bool ("has a " ^ name ^ " span") true
        (List.exists (fun (s : Chrome.span) -> s.name = name) spans))
    allowed;
  let json = Repro_util.Json_out.to_string (Farm.trace o) in
  check bool "chrome document" true (contains ~sub:"\"traceEvents\"" json);
  check bool "coordinator track named" true (contains ~sub:"coordinator" json);
  check bool "PE track named" true (contains ~sub:"PE 1" json);
  (* the one profiler reads the file [dist --trace] writes: each PE's
     row counts the tasks that PE executed *)
  let report =
    Profile.analyze (Chrome.of_json (Repro_util.Json_in.parse json))
  in
  Array.iter
    (fun (r : Farm.pe_report) ->
      match
        List.filter (fun (w : Profile.worker_row) -> w.wtid = r.rep_pe)
          report.workers
      with
      | [ w ] ->
          check int
            (Printf.sprintf "profiled tasks of PE %d" r.rep_pe)
            r.stats.Message.tasks_executed w.tasks
      | rows -> failf "PE %d has %d profile rows" r.rep_pe (List.length rows))
    o.Farm.reports

(* A traced apsp farm on 2 and 3 PEs: every blocking ring receive is a
   [wait] slice inside its PE's one [task] slice, one per row the PE
   did not make, left out of [exec_ns]; the coordinator's track has no
   [relay] slice, since no row crosses it, and the profile counts the
   waits as parked, not busy, whether it reads the spans or the file. *)
let trace_relay_waits transport () =
  let module W = Workload.Apsp_w in
  let size = W.quick_size in
  List.iter
    (fun procs ->
      let o = Farm.run ~trace:true ~transport ~procs ~size (module W) in
      let what s = Printf.sprintf "%d PEs: %s" procs s in
      check int (what "checksum") (W.reference ~size) o.Farm.result;
      let received pe = size - (((pe + 1) * size / procs) - (pe * size / procs)) in
      Array.iter
        (fun (r : Farm.pe_report) ->
          let named name =
            List.filter (fun (s : Chrome.span) -> s.name = name) r.stats.Message.spans
          in
          let stop (s : Chrome.span) = s.ts_ns + Option.get s.dur_ns in
          match named "task" with
          | [ t ] ->
              let waits = named "wait" in
              let waited =
                List.fold_left (fun acc (w : Chrome.span) -> acc + Option.get w.dur_ns) 0 waits
              in
              check int
                (what (Printf.sprintf "PE %d: ring waits" r.rep_pe))
                (received r.rep_pe) (List.length waits);
              check int
                (what (Printf.sprintf "PE %d: exec_ns plus waits is the task's span" r.rep_pe))
                (Option.get t.dur_ns)
                (r.stats.Message.exec_ns + waited);
              List.iter
                (fun (w : Chrome.span) ->
                  check bool "wait inside the task" true
                    (t.ts_ns <= w.ts_ns && w.ts_ns <= stop w && stop w <= stop t))
                waits
          | spans ->
              failf "%s" (what (Printf.sprintf "PE %d has %d task spans" r.rep_pe
                                  (List.length spans))))
        o.Farm.reports;
      let spans = Farm.spans o in
      let count name tid =
        List.length
          (List.filter (fun (s : Chrome.span) -> s.name = name && s.tid = tid) spans)
      in
      check int (what "no relay slice anywhere") 0
        (List.length (List.filter (fun (s : Chrome.span) -> s.name = "relay") spans));
      check int (what "the coordinator's track only schedules") procs
        (List.length (List.filter (fun (s : Chrome.span) -> s.tid = procs) spans));
      for pe = 0 to procs - 1 do
        check int (what (Printf.sprintf "PE %d waits" pe)) (received pe) (count "wait" pe)
      done;
      let report =
        Profile.analyze
          (Chrome.of_json
             (Repro_util.Json_in.parse (Repro_util.Json_out.to_string (Farm.trace o))))
      in
      check bool (what "the file's profile is the spans'") true
        (report = Profile.analyze spans);
      List.iter
        (fun (w : Profile.worker_row) ->
          if w.wtid < procs then begin
            check bool (what (Printf.sprintf "PE %d parked while waiting" w.wtid)) true
              (w.parked_us > 0.0);
            let r = o.Farm.reports.(w.wtid) in
            (* the trace carries float microseconds, printed rounded *)
            check bool
              (what (Printf.sprintf "PE %d busy is its exec_ns" w.wtid))
              true
              (Float.abs (w.busy_us -. (float_of_int r.stats.Message.exec_ns /. 1e3))
              < 2.0 +. (0.01 *. w.busy_us))
          end)
        report.workers)
    [ 2; 3 ]

let untraced_runs_have_no_spans () =
  let o = quick_run (module Workload.Parfib) in
  check (list reject) "no spans without ~trace" [] (Farm.spans o)

(* Link counters are labelled by transport only: links that come and
   go retire into one series, so the registry (and every farm-wide
   snapshot merge built on it) stays the same size. *)
let closed_links_keep_registry_bounded () =
  let cycle () =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Wire.close (conn_of a);
    Wire.close (conn_of b)
  in
  let wire_samples () =
    List.length
      (List.filter
         (fun (s : Repro_metrics.Metrics.sample) ->
           String.starts_with ~prefix:"repro_wire_" s.s_name)
         (Repro_metrics.Metrics.snapshot ()).samples)
  in
  cycle ();
  let before = wire_samples () in
  for _ = 1 to 500 do
    cycle ()
  done;
  check int "repro_wire_* samples after 500 closed links" before
    (wire_samples ())

let suite =
  ( "dist",
    [
      test_case "wire codec edge sizes" `Quick codec_edge_cases;
      QCheck_alcotest.to_alcotest codec_qcheck;
      test_case "wire codec message stream" `Quick codec_stream;
      test_case "wire codec rejects every truncation" `Quick codec_truncation;
      test_case "wire codec rejects unknown flags" `Quick
        codec_rejects_bad_flags;
      test_case "packets_of_len arithmetic" `Quick packets_of_len_cases;
      test_case "socketpair round trip and counters" `Quick
        fd_roundtrip_counters;
      test_case "socketpair multi-packet message" `Quick fd_multi_packet;
      test_case "clean EOF at a frame boundary" `Quick fd_clean_eof;
      test_case "EOF mid-frame is Truncated" `Quick fd_truncated_frame;
      test_case "send to a dead peer" `Quick fd_dead_peer_send;
      test_case "float frame of 12 bytes is a counted protocol error" `Quick
        fd_float_frame_bad_length;
      test_case "sock wait_any wakes for any link, honours timeout" `Quick
        sock_wait_any;
      test_case "sock pump pass keeps a second queued message" `Quick
        sock_pump_keeps_queued;
      QCheck_alcotest.to_alcotest spsc_qcheck;
      test_case "spsc ring wrap-around at every offset" `Quick spsc_wrap_around;
      test_case "shm ring round trip and counters" `Quick shm_roundtrip_counters;
      test_case "shm float payloads are bit-identical" `Quick shm_float_identity;
      test_case "sock float payloads are bit-identical" `Quick
        sock_float_identity;
      test_case "shm backpressure and doorbell wake" `Quick
        shm_backpressure_doorbell;
      test_case "shm peer death drains then raises" `Quick shm_peer_gone;
      test_case "shm full ring notices a dead consumer" `Quick
        shm_full_ring_dead_consumer;
      farm_case "two-process exactly-once ledger"
        (exactly_once_ledger Farm.Sock);
      farm_case "shm exactly-once ledger" (exactly_once_ledger Farm.Shm);
      farm_case "sock unpinned task costs two messages"
        (two_messages_per_task Farm.Sock);
      farm_case "shm unpinned task costs two messages"
        (two_messages_per_task Farm.Shm);
      farm_case "all workloads match sequential references"
        all_workloads_match_reference;
      farm_case "all workloads match references over shm"
        all_workloads_match_reference_shm;
      farm_case "sock matmul at sizes 1, 3, 67 on 1-4 PEs"
        (matmul_sizes Farm.Sock);
      farm_case "shm matmul at sizes 1, 3, 67 on 1-4 PEs"
        (matmul_sizes Farm.Shm);
      farm_case "apsp pinned rounds over shm" apsp_shm_pinned;
      farm_case "closure farm over shm" farm_closures_shm;
      farm_case "apsp awkward shapes" apsp_awkward_shapes;
      farm_case "sock apsp relays its pivot rows in one round"
        (apsp_relays Farm.Sock);
      farm_case "shm apsp relays its pivot rows in one round"
        (apsp_relays Farm.Shm);
      test_case "apsp execute rejects a bad relayed pivot" `Quick
        apsp_execute_checks_relays;
      farm_case "more PEs than tasks" more_procs_than_tasks;
      farm_case "closure farm" farm_closures;
      farm_case "sock closure results larger than a ring"
        (farm_large_results Farm.Sock);
      farm_case "shm closure results larger than a ring"
        (farm_large_results Farm.Shm);
      farm_case "sock coordinator blocks instead of polling"
        (coordinator_blocks Farm.Sock);
      farm_case "shm coordinator blocks instead of polling"
        (coordinator_blocks Farm.Shm);
      farm_case "PE dead before Ready leaves no child over sock"
        (dead_before_ready Farm.Sock);
      farm_case "PE dead before Ready leaves no child over shm"
        (dead_before_ready Farm.Shm);
      farm_case "sock PE death mid-round is named"
        (pe_death_mid_round Farm.Sock);
      farm_case "shm PE death mid-round is named" (pe_death_mid_round Farm.Shm);
      farm_case "rejects procs < 1" rejects_bad_procs;
      farm_case "traced run emits timeline spans" trace_spans;
      farm_case "sock traced apsp separates relay waits"
        (trace_relay_waits Farm.Sock);
      farm_case "shm traced apsp separates relay waits"
        (trace_relay_waits Farm.Shm);
      farm_case "untraced run has no spans" untraced_runs_have_no_spans;
      test_case "closed links keep the registry bounded" `Quick
        closed_links_keep_registry_bounded;
      test_case "sock malformed messages are counted errors" `Quick
        sock_malformed_messages;
      test_case "shm malformed messages are counted errors" `Quick
        shm_malformed_messages;
    ] )
