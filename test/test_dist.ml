(** Tests for the multi-process executor (lib/dist): wire-protocol
    codec properties, fd-level framing and error paths over a real
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
module Timeline = Repro_dist.Timeline

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Pure codec                                                          *)

let encoded_len ~packet_bytes len =
  len + (Wire.header_bytes * Wire.packets_of_len ~packet_bytes len)

let payload_of_len len = String.init len (fun i -> Char.chr (i land 0xff))

(* Edge sizes around the packet boundary, including the empty message
   and multi-packet messages. *)
let codec_edge_cases () =
  List.iter
    (fun packet_bytes ->
      List.iter
        (fun len ->
          if len >= 0 then begin
            let s = payload_of_len len in
            let enc = Wire.encode ~packet_bytes s in
            check int
              (Printf.sprintf "encoded length (pb=%d len=%d)" packet_bytes len)
              (encoded_len ~packet_bytes len)
              (String.length enc);
            let dec, pos = Wire.decode enc ~pos:0 in
            check string "payload round-trips" s dec;
            check int "consumed to the end" (String.length enc) pos
          end)
        [
          0; 1; packet_bytes - 1; packet_bytes; packet_bytes + 1;
          2 * packet_bytes; (3 * packet_bytes) + 7;
        ])
    [ 1; 7; 64 ]

let codec_qcheck =
  QCheck.Test.make ~name:"wire codec round-trips arbitrary payloads"
    ~count:200
    QCheck.(pair (int_range 1 80) (string_of_size Gen.(0 -- 300)))
    (fun (packet_bytes, s) ->
      let enc = Wire.encode ~packet_bytes s in
      let dec, pos = Wire.decode enc ~pos:0 in
      dec = s
      && pos = String.length enc
      && String.length enc = encoded_len ~packet_bytes (String.length s))

(* Back-to-back messages decode in sequence from one stream. *)
let codec_stream () =
  let packet_bytes = 9 in
  let msgs = [ ""; "a"; payload_of_len 25; payload_of_len 9; "end" ] in
  let stream = String.concat "" (List.map (Wire.encode ~packet_bytes) msgs) in
  let pos = ref 0 in
  List.iter
    (fun expected ->
      let dec, pos' = Wire.decode stream ~pos:!pos in
      check string "message in stream order" expected dec;
      pos := pos')
    msgs;
  check int "stream fully consumed" (String.length stream) !pos

(* Every strict prefix of an encoded message is an incomplete frame. *)
let codec_truncation () =
  let packet_bytes = 7 in
  let enc = Wire.encode ~packet_bytes (payload_of_len 20) in
  for cut = 0 to String.length enc - 1 do
    let prefix = String.sub enc 0 cut in
    match Wire.decode prefix ~pos:0 with
    | _ -> failf "prefix of %d bytes decoded" cut
    | exception Wire.Truncated _ -> ()
  done

let codec_rejects_bad_flags () =
  (* length 0, flags with an unknown bit set *)
  let bad = "\x00\x00\x00\x00\x02" in
  match Wire.decode bad ~pos:0 with
  | _ -> fail "unknown flags accepted"
  | exception Wire.Protocol_error _ -> ()

let packets_of_len_cases () =
  check int "empty message still needs a packet" 1
    (Wire.packets_of_len ~packet_bytes:8 0);
  check int "exact fit" 1 (Wire.packets_of_len ~packet_bytes:8 8);
  check int "one byte over" 2 (Wire.packets_of_len ~packet_bytes:8 9);
  check int "many" 4 (Wire.packets_of_len ~packet_bytes:8 25)

(* ------------------------------------------------------------------ *)
(* Framing over a real socketpair                                      *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      close a;
      close b)
    (fun () -> f a b)

let conn_of fd = Wire.create ~read_fd:fd ~write_fd:fd ()

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

let protocol_errors () =
  let module M = Repro_metrics.Metrics in
  match
    M.find ~labels:[ ("kind", "protocol") ] (M.snapshot ())
      "repro_wire_errors_total"
  with
  | Some { M.s_value = M.Counter v; _ } -> v
  | _ -> 0.

(* A float frame whose length is not a whole number of floats is a
   protocol error, and like every transport error it is counted. *)
let fd_float_frame_bad_length () =
  with_socketpair (fun a b ->
      let before = protocol_errors () in
      (* header: 12-byte chunk, flags last + floats; then the chunk *)
      let frame = "\x00\x00\x00\x0c\x03" ^ String.make 12 '\x00' in
      check int "frame written" (String.length frame)
        (Unix.write_substring a frame 0 (String.length frame));
      (match Wire.recv_floats (conn_of b) ~len:2 with
      | _ -> fail "a 12-byte float frame was accepted"
      | exception Wire.Protocol_error _ -> ());
      check (float 0.) "repro_wire_errors_total{kind=protocol} bumped once"
        (before +. 1.) (protocol_errors ()))

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
      Message.send_to_coordinator peer_b Message.Fish;
      let dt = elapsed_s (fun () -> Link.wait_any ~timeout:5.0 links) in
      check bool "woke for the second link, well before the timeout" true
        (dt < 1.0);
      check (list int) "only the second link is ready" [ 1 ] (Link.ready links);
      (match Message.recv_to_coordinator links.(1) with
      | Message.Fish -> ()
      | _ -> fail "expected the queued Fish");
      check (list int) "drained" [] (Link.ready links);
      let dt = elapsed_s (fun () -> Link.wait_any ~timeout:0.05 links) in
      check bool
        (Printf.sprintf "nothing queued: returns after about the timeout (%.3f s)"
           dt)
        true
        (dt >= 0.04 && dt < 1.0))

(* One link holds two queued messages: a pump pass takes one message
   per ready link, so the second must still be there for the next. *)
let sock_pump_keeps_queued () =
  with_sock_links (fun links (peer_a, _) ->
      Message.send_to_coordinator peer_a
        (Message.Result { task_id = 7; round = 0; payload = "r"; blob = -1 });
      Message.send_to_coordinator peer_a Message.Fish;
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
      | [ (0, Message.Result { task_id = 7; payload = "r"; _ }); (0, Message.Fish) ]
        ->
          ()
      | l -> failf "expected Result then Fish on link 0, got %d messages" (List.length l))

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
    QCheck.(pair (int_range 1 5) (list_of_size Gen.(0 -- 120) bool))
    (fun (cap, ops) ->
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

let with_shm_pair ?(ring_bytes = 4096) ?(doorbell = false) f =
  let path = Shm.create_segment ~ring_bytes () in
  Fun.protect
    ~finally:(fun () -> Shm.unlink_segment path)
    (fun () ->
      if doorbell then begin
        let da, db = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let a = Shm.attach ~path ~side:`A ~doorbell:da () in
        let b = Shm.attach ~path ~side:`B ~doorbell:db () in
        Fun.protect
          ~finally:(fun () ->
            Shm.close a;
            Shm.close b)
          (fun () -> f a b)
      end
      else
        let a = Shm.attach ~path ~side:`A () in
        let b = Shm.attach ~path ~side:`B () in
        f a b)

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
            s (Shm.recv b);
          Shm.send b s;
          check string
            (Printf.sprintf "b->a payload of %d bytes" len)
            s (Shm.recv a))
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

let shm_float_identity () =
  with_shm_pair (fun a b ->
      Shm.send_floats a float_specials;
      check_bits "shm specials" float_specials
        (Shm.recv_floats b ~len:(Array.length float_specials));
      let big = Array.init 300 (fun i -> Float.of_int i *. 0.1) in
      Shm.send_floats a big;
      check_bits "shm 300 floats" big (Shm.recv_floats b ~len:300);
      let ca = Shm.counters a and cb = Shm.counters b in
      let bytes = 8 * (Array.length float_specials + 300) in
      check int "zero-copy bytes sent" bytes ca.Wire.zero_copy_bytes_sent;
      check int "zero-copy bytes received" bytes cb.Wire.zero_copy_bytes_recv;
      check int "floats also count as payload" bytes
        ca.Wire.payload_bytes_sent)

(* The socketpair float plane must be bit-identical too (raw LE bits,
   not text), even though it copies through the scratch buffer. *)
let sock_float_identity () =
  with_socketpair (fun a b ->
      let ca = conn_of a and cb = conn_of b in
      Wire.send_floats ca float_specials;
      check_bits "sock specials" float_specials
        (Wire.recv_floats cb ~len:(Array.length float_specials));
      check int "sock float plane is copied, not zero-copy" 0
        (Wire.counters ca).Wire.zero_copy_bytes_sent;
      check int "payload bytes counted"
        (8 * Array.length float_specials)
        (Wire.counters ca).Wire.payload_bytes_sent)

(* A message far larger than the ring streams through it: the producer
   blocks on the full ring (backpressure) until the consumer frees
   frames; the doorbell wakes the sleeping consumer mid-stream.  A
   second domain plays the producer. *)
let shm_backpressure_doorbell () =
  with_shm_pair ~ring_bytes:4096 ~doorbell:true (fun a b ->
      let big = payload_of_len 100_000 in
      let msgs = 20 in
      let producer =
        Domain.spawn (fun () ->
            for _ = 1 to msgs do
              Shm.send a big
            done)
      in
      for i = 1 to msgs do
        let got = Shm.recv b in
        check bool
          (Printf.sprintf "streamed message %d intact" i)
          true (String.equal big got)
      done;
      Domain.join producer;
      check bool "no spurious extra input" false (Shm.input_ready b))

(* Doorbell EOF: the peer vanishing is End_of_file at a message
   boundary, after any in-flight data has been drained. *)
let shm_peer_gone () =
  let path = Shm.create_segment ~ring_bytes:4096 () in
  Fun.protect
    ~finally:(fun () -> Shm.unlink_segment path)
    (fun () ->
      let da, db = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let a = Shm.attach ~path ~side:`A ~doorbell:da () in
      let b = Shm.attach ~path ~side:`B ~doorbell:db () in
      Shm.send a "parting gift";
      Shm.close a;
      (* the ring still holds the last message; EOF only after it *)
      check string "in-flight message survives the close" "parting gift"
        (Shm.recv b);
      (match Shm.recv b with
      | _ -> fail "recv succeeded with a dead peer and an empty ring"
      | exception End_of_file -> ());
      Shm.close b)

(* ------------------------------------------------------------------ *)
(* End-to-end multi-process runs                                       *)

let quick_run ?(procs = 2) ?trace ?transport (module W : Workload.S) =
  Farm.run ?trace ?transport ~procs ~size:W.quick_size (module W)

(* Exactly-once ledger: the coordinator schedules each task once, the
   workers between them execute each task once, and the combined
   result matches the sequential reference. *)
let exactly_once_ledger () =
  let module W = Workload.Sumeuler in
  let o = quick_run (module W) in
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
  check bool "demand scheduling fished" true (o.Farm.fishes > 0);
  check bool "work was timed" true (o.Farm.work_ns > 0)

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

(* The same five workloads over the shared-memory rings, with three
   PEs so the peer-to-peer mesh is non-trivial.  Exactly-once still
   holds, and the workloads that declare a float codec must move their
   results on the zero-copy plane. *)
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

let exactly_once_ledger_shm () =
  let module W = Workload.Sumeuler in
  let o = quick_run ~transport:Farm.Shm (module W) in
  check int "checksum over shm" (W.reference ~size:W.quick_size) o.Farm.result;
  check int "every task scheduled exactly once" o.Farm.tasks o.Farm.schedules;
  check bool "no coordinator no-works over shm" true (o.Farm.no_works = 0);
  check bool "steal accounting is consistent" true
    (o.Farm.stolen >= 0 && o.Farm.stolen <= o.Farm.tasks);
  let grants =
    Array.fold_left
      (fun acc (r : Farm.pe_report) ->
        acc + r.Farm.stats.Repro_dist.Message.grants_given)
      0 o.Farm.reports
  in
  (* a granted task can be granted onward before it runs, so grants
     bound the stolen count from above rather than matching it *)
  check bool "stolen tasks all came from grants" true (grants >= o.Farm.stolen)

let apsp_shm_pinned () =
  let module W = Workload.Apsp_w in
  List.iter
    (fun (procs, size) ->
      let o = Farm.run ~transport:Farm.Shm ~procs ~size (module W) in
      check int
        (Printf.sprintf "apsp over shm procs=%d size=%d" procs size)
        (W.reference ~size) o.Farm.result;
      check int "pinned rounds never steal" 0 o.Farm.stolen)
    [ (3, 17); (2, 1) ]

let farm_closures_shm () =
  let fs = List.map (fun x () -> x * 10) [ 1; 2; 3; 4; 5 ] in
  check (list int) "closure farm over shm" [ 10; 20; 30; 40; 50 ]
    (Farm.farm ~transport:Farm.Shm ~procs:2 fs)

(* Pinned rounds with awkward divisions: block count not a multiple of
   the PE count, and more PEs than rows. *)
let apsp_awkward_shapes () =
  let module W = Workload.Apsp_w in
  List.iter
    (fun (procs, size) ->
      let o = Farm.run ~procs ~size (module W) in
      check int
        (Printf.sprintf "apsp procs=%d size=%d" procs size)
        (W.reference ~size) o.Farm.result)
    [ (3, 17); (4, 3); (2, 1) ]

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

(* While the PEs work, the sock coordinator blocks in [select]: its own
   CPU time stays a small share of the wall time.  Polling readiness
   instead costs about a third of it. *)
let sock_coordinator_blocks () =
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
  let wall = elapsed_s (fun () -> got := Farm.farm ~transport:Farm.Sock ~procs:2 fs) in
  let used = cpu () -. cpu0 in
  check (list int) "results in order" (List.init 200 Fun.id) !got;
  if used >= 0.1 *. wall then
    failf "coordinator CPU %.3f s is %.0f%% of %.3f s wall" used
      (100. *. used /. wall) wall

let rejects_bad_procs () =
  check_raises "procs = 0" (Invalid_argument "Farm.run: procs must be >= 1")
    (fun () ->
      ignore (Farm.run ~procs:0 ~size:10 (module Workload.Sumeuler)))

(* ------------------------------------------------------------------ *)
(* Timeline and measurement                                            *)

let trace_spans () =
  let o = quick_run ~trace:true (module Workload.Sumeuler) in
  let spans = Timeline.of_outcome o in
  check bool "spans recorded" true (spans <> []);
  let allowed = [ "schedule"; "wire"; "unpack"; "exec"; "pack" ] in
  List.iter
    (fun (s : Timeline.span) ->
      check bool ("known span name: " ^ s.Timeline.name) true
        (List.mem s.Timeline.name allowed);
      check bool "span is ordered" true (s.Timeline.t1_ns >= s.Timeline.t0_ns);
      check bool "track is coordinator or a PE" true
        (s.Timeline.track >= -1 && s.Timeline.track < o.Farm.procs))
    spans;
  List.iter
    (fun name ->
      check bool ("has a " ^ name ^ " span") true
        (List.exists (fun (s : Timeline.span) -> s.Timeline.name = name) spans))
    allowed;
  let json =
    Repro_util.Json_out.to_string (Timeline.to_chrome ~procs:o.Farm.procs spans)
  in
  check bool "chrome document" true (contains ~sub:"\"traceEvents\"" json);
  check bool "coordinator track named" true (contains ~sub:"coordinator" json);
  check bool "PE track named" true (contains ~sub:"PE 1" json)

let untraced_runs_have_no_spans () =
  let o = quick_run (module Workload.Parfib) in
  check (list reject) "no spans without ~trace" [] (Timeline.of_outcome o)

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
      test_case "two-process exactly-once ledger" `Quick exactly_once_ledger;
      test_case "shm exactly-once ledger" `Quick exactly_once_ledger_shm;
      test_case "all workloads match sequential references" `Quick
        all_workloads_match_reference;
      test_case "all workloads match references over shm" `Quick
        all_workloads_match_reference_shm;
      test_case "apsp pinned rounds over shm" `Quick apsp_shm_pinned;
      test_case "closure farm over shm" `Quick farm_closures_shm;
      test_case "apsp awkward shapes" `Quick apsp_awkward_shapes;
      test_case "more PEs than tasks" `Quick more_procs_than_tasks;
      test_case "closure farm" `Quick farm_closures;
      test_case "sock coordinator blocks instead of polling" `Quick
        sock_coordinator_blocks;
      test_case "rejects procs < 1" `Quick rejects_bad_procs;
      test_case "traced run emits timeline spans" `Quick trace_spans;
      test_case "untraced run has no spans" `Quick untraced_runs_have_no_spans;
      test_case "closed links keep the registry bounded" `Quick
        closed_links_keep_registry_bounded;
    ] )
