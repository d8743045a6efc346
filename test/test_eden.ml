(** Tests for the Eden layer: Trans dictionaries, one-shot channels,
    streams, process instantiation, and the middleware transports. *)

module Rts = Repro_parrts.Rts
module Api = Repro_parrts.Rts.Api
module Config = Repro_parrts.Config
module Cost = Repro_util.Cost
module Eden = Repro_core.Eden
module Machine = Repro_machine.Machine
module Transport = Repro_mp.Transport

let test_case = Alcotest.test_case
let check = Alcotest.check

let cfg ?(npes = 4) ?(transport = Transport.pvm) () =
  let machine = Machine.make ~name:"t" ~cores:npes ~clock_ghz:1.0 () in
  let c = Config.default ~machine ~ncaps:npes () in
  { c with heap_mode = Config.Distributed transport }

let run ?npes ?transport f = fst (Rts.run (cfg ?npes ?transport ()) f)

(* ---------------- Transport cost profiles ---------------- *)

let transport_profiles () =
  check Alcotest.bool "pvm slower than mpi" true
    (Transport.flight_ns Transport.pvm 1000 > Transport.flight_ns Transport.mpi 1000);
  check Alcotest.bool "mpi slower than shm" true
    (Transport.flight_ns Transport.mpi 1000 > Transport.flight_ns Transport.shm 1000);
  check Alcotest.int "packets" 3 (Transport.packets Transport.pvm (80 * 1024));
  check Alcotest.int "min one packet" 1 (Transport.packets Transport.pvm 1);
  check Alcotest.bool "send side grows with size" true
    (Transport.send_side_ns Transport.pvm 100_000
     > Transport.send_side_ns Transport.pvm 100);
  (match Transport.by_name "mpi" with
  | t -> check Alcotest.string "by_name" "mpi" t.Transport.name);
  Alcotest.check_raises "unknown transport"
    (Invalid_argument "Transport.by_name: unknown \"bogus\"") (fun () ->
      ignore (Transport.by_name "bogus"))

(* ---------------- Trans ---------------- *)

let trans_sizes () =
  check Alcotest.bool "list bigger than element" true
    ((Eden.t_list Eden.t_int).Eden.bytes [ 1; 2; 3 ] > Eden.t_int.Eden.bytes 1);
  check Alcotest.int "float array size" (24 + 80)
    (Eden.t_float_array.Eden.bytes (Array.make 10 0.0));
  let m = Array.make_matrix 3 4 0.0 in
  check Alcotest.int "matrix size" (24 + (3 * (24 + 32)))
    (Eden.t_float_matrix.Eden.bytes m);
  check Alcotest.bool "pair adds up" true
    ((Eden.t_pair Eden.t_int Eden.t_float).Eden.bytes (1, 2.0)
     >= Eden.t_int.Eden.bytes 1 + Eden.t_float.Eden.bytes 2.0)

(* ---------------- Channels ---------------- *)

let chan_roundtrip () =
  let v = run (fun () ->
      let ch = Eden.new_chan () in
      ignore
        (Api.spawn ~cap:1 (fun () ->
             Api.charge (Cost.cycles 1000);
             Eden.send Eden.t_int ch 99));
      Eden.recv ch)
  in
  check Alcotest.int "value through channel" 99 v

let chan_local_loopback () =
  let v = run (fun () ->
      let ch = Eden.new_chan () in
      Eden.send Eden.t_int ch 7;
      Eden.recv ch)
  in
  check Alcotest.int "same-PE send" 7 v

let chan_wrong_pe_rejected () =
  Alcotest.check_raises "recv on wrong PE"
    (Failure "Eden.recv: channel received on a PE that does not own it")
    (fun () ->
      ignore
        (run (fun () ->
             let ch = Eden.new_chan_at ~pe:2 in
             ignore (Eden.recv ch))))

(* ---------------- Streams ---------------- *)

let stream_order_preserved () =
  let v = run (fun () ->
      let st = Eden.new_stream () in
      ignore
        (Api.spawn ~cap:1 (fun () ->
             Eden.put_list Eden.t_int st [ 1; 2; 3; 4; 5 ]));
      Eden.to_list st)
  in
  check Alcotest.(list int) "ordered" [ 1; 2; 3; 4; 5 ] v

let stream_interleaved_blocking () =
  (* consumer starts before the producer has produced: must block and
     resume per element *)
  let v = run (fun () ->
      let st = Eden.new_stream () in
      ignore
        (Api.spawn ~cap:1 (fun () ->
             for i = 1 to 3 do
               Api.charge (Cost.cycles 100_000);
               Eden.put Eden.t_int st i
             done;
             Eden.close st));
      let a = Eden.next st in
      let b = Eden.next st in
      let c = Eden.next st in
      let d = Eden.next st in
      [ a; b; c; d ])
  in
  check
    Alcotest.(list (option int))
    "stream with end mark"
    [ Some 1; Some 2; Some 3; None ]
    v

let stream_empty_closed () =
  let v = run (fun () ->
      let st : int Eden.stream = Eden.new_stream () in
      ignore (Api.spawn ~cap:1 (fun () -> Eden.close st));
      Eden.next st)
  in
  check Alcotest.(option int) "closed empty stream" None v

(* ---------------- spawn ---------------- *)

let spawn_computes_in_order () =
  let v = run (fun () ->
      Eden.spawn ~tr_in:Eden.t_int ~tr_out:Eden.t_int
        (fun x -> x * 10)
        [ 1; 2; 3; 4; 5; 6 ])
  in
  check Alcotest.(list int) "outputs in input order" [ 10; 20; 30; 40; 50; 60 ] v

let spawn_charges_messages () =
  let _, report =
    Rts.run (cfg ()) (fun () ->
        ignore
          (Eden.spawn ~tr_in:(Eden.t_list Eden.t_int) ~tr_out:Eden.t_int
             (List.fold_left ( + ) 0)
             [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]))
  in
  (* 3 instantiations + 3 inputs + 3 results, minus same-PE loop-backs *)
  check Alcotest.bool "messages flowed" true (report.Repro_parrts.Report.messages.sent >= 6)

let placement_round_robin () =
  let v = run ~npes:3 (fun () ->
      Eden.spawn ~tr_in:Eden.t_int ~tr_out:Eden.t_int
        (fun _ -> Api.my_cap ())
        [ 0; 0; 0; 0 ])
  in
  (* parent on PE 0; children on 1, 2, 0, 1 *)
  check Alcotest.(list int) "round robin placement" [ 1; 2; 0; 1 ] v

let qcheck_spawn_equals_map =
  QCheck.Test.make ~name:"Eden.spawn == List.map" ~count:40
    QCheck.(pair (int_bound 4) (small_list small_nat))
    (fun (p, xs) ->
      (* bounds from 0, as QCheck's shrinker assumes *)
      let npes = p + 2 in
      let got =
        run ~npes (fun () ->
            Eden.spawn ~tr_in:Eden.t_int ~tr_out:Eden.t_int (fun x -> x + 100) xs)
      in
      got = List.map (fun x -> x + 100) xs)

let suite =
  ( "eden",
    [
      test_case "transport profiles" `Quick transport_profiles;
      test_case "trans sizes" `Quick trans_sizes;
      test_case "channel roundtrip" `Quick chan_roundtrip;
      test_case "channel local loopback" `Quick chan_local_loopback;
      test_case "channel wrong PE rejected" `Quick chan_wrong_pe_rejected;
      test_case "stream order preserved" `Quick stream_order_preserved;
      test_case "stream blocking consumer" `Quick stream_interleaved_blocking;
      test_case "stream closed-empty" `Quick stream_empty_closed;
      test_case "spawn computes in order" `Quick spawn_computes_in_order;
      test_case "spawn sends messages" `Quick spawn_charges_messages;
      test_case "placement round robin" `Quick placement_round_robin;
      QCheck_alcotest.to_alcotest qcheck_spawn_equals_map;
    ] )
