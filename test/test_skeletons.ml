(** Tests for the Eden skeletons: farm, master/worker, ring, torus. *)

module Rts = Repro_parrts.Rts
module Api = Repro_parrts.Rts.Api
module Config = Repro_parrts.Config
module Cost = Repro_util.Cost
module Eden = Repro_core.Eden
module Sk = Repro_core.Skeletons
module Machine = Repro_machine.Machine
module Transport = Repro_mp.Transport

let test_case = Alcotest.test_case
let check = Alcotest.check

let cfg ?(npes = 4) () =
  let machine = Machine.make ~name:"t" ~cores:npes ~clock_ghz:1.0 () in
  let c = Config.default ~machine ~ncaps:npes () in
  { c with heap_mode = Config.Distributed Transport.shm }

let run ?npes f = fst (Rts.run (cfg ?npes ()) f)

let farm_equals_map () =
  let xs = List.init 37 (fun i -> i - 5) in
  let v = run (fun () ->
      Sk.par_map_farm ~tr_in:Eden.t_int ~tr_out:Eden.t_int (fun x -> x * x) xs)
  in
  check Alcotest.(list int) "farm == map" (List.map (fun x -> x * x) xs) v

let farm_custom_np () =
  let xs = List.init 10 Fun.id in
  let v = run (fun () ->
      Sk.par_map_farm ~np:2 ~tr_in:Eden.t_int ~tr_out:Eden.t_int (fun x -> -x) xs)
  in
  check Alcotest.(list int) "np=2" (List.map (fun x -> -x) xs) v

let master_worker_flat_tasks () =
  let v = run (fun () ->
      Sk.master_worker ~tr_task:Eden.t_int ~tr_res:Eden.t_int
        (fun t ->
          Api.charge (Cost.cycles 10_000);
          ([], t * 2))
        (List.init 20 (fun i -> i + 1)))
  in
  check Alcotest.int "count" 20 (List.length v);
  check Alcotest.int "sum of doubles" (2 * 210) (List.fold_left ( + ) 0 v)

let master_worker_dynamic_tasks () =
  (* tasks expand: task n > 0 spawns n-1 and n-2... count leaves of a
     Fibonacci-call tree (task n yields result 1 at n <= 1) *)
  let v = run (fun () ->
      Sk.master_worker ~prefetch:3 ~tr_task:Eden.t_int ~tr_res:Eden.t_int
        (fun n ->
          Api.charge (Cost.cycles 5_000);
          if n <= 1 then ([], 1) else ([ n - 1; n - 2 ], 0))
        [ 8 ])
  in
  (* leaves of the fib call tree for n=8: fib(9) = 34 *)
  check Alcotest.int "fib leaves" 34 (List.fold_left ( + ) 0 v)

let master_worker_irregular () =
  let v = run ~npes:5 (fun () ->
      Sk.master_worker ~tr_task:Eden.t_int ~tr_res:Eden.t_int
        (fun t ->
          (* irregular cost *)
          Api.charge (Cost.cycles (1000 * (1 + (t mod 7))));
          ([], t))
        (List.init 50 Fun.id))
  in
  check Alcotest.int "all results back" 50 (List.length v);
  check Alcotest.int "content preserved"
    (50 * 49 / 2)
    (List.fold_left ( + ) 0 v)

let ring_token_pass () =
  (* each ring process adds its input to a circulating token *)
  let v = run (fun () ->
      Sk.ring ~n:4 ~tr_ring:Eden.t_int ~tr_out:Eden.t_int
        ~distribute:(fun k -> k + 1)
        ~worker:(fun k input recv send close_right ->
          if k = 0 then begin
            send input;
            let total = match recv () with Some t -> t | None -> -1 in
            close_right ();
            total
          end
          else begin
            let t = match recv () with Some t -> t | None -> -1 in
            send (t + input);
            close_right ();
            0
          end))
  in
  (* token = 1 + 2 + 3 + 4 after one revolution *)
  check Alcotest.(list int) "ring sum" [ 10; 0; 0; 0 ] v

let torus_coordinates () =
  (* each torus process sends its coordinates around both rings once
     and checks what it receives: row ring neighbours share the row *)
  let v = run ~npes:5 (fun () ->
      Sk.torus ~rows:2 ~cols:2 ~tr_a:Eden.t_int ~tr_b:Eden.t_int
        ~tr_out:Eden.t_int
        ~worker:(fun ~row ~col ~recv_a ~send_a ~recv_b ~send_b ->
          send_a col;
          send_b row;
          let from_right = match recv_a () with Some c -> c | None -> -1 in
          let from_below = match recv_b () with Some r -> r | None -> -1 in
          (* in a 2-column ring, my right neighbour's col is 1-col *)
          assert (from_right = 1 - col);
          assert (from_below = 1 - row);
          (row * 10) + col))
  in
  check Alcotest.(list int) "all workers ran" [ 0; 1; 10; 11 ] v

let qcheck_farm =
  QCheck.Test.make ~name:"par_map_farm == List.map (any npes, any list)"
    ~count:30
    QCheck.(pair (int_bound 4) (small_list small_nat))
    (fun (p, xs) ->
      (* bounds from 0, as QCheck's shrinker assumes *)
      let npes = p + 2 in
      run ~npes (fun () ->
          Sk.par_map_farm ~tr_in:Eden.t_int ~tr_out:Eden.t_int
            (fun x -> (3 * x) + 1)
            xs)
      = List.map (fun x -> (3 * x) + 1) xs)

let qcheck_master_worker =
  QCheck.Test.make ~name:"master_worker returns one result per task" ~count:25
    QCheck.(pair (int_bound 4) (small_list small_nat))
    (fun (p, xs) ->
      let npes = p + 2 in
      let res =
        run ~npes (fun () ->
            Sk.master_worker ~tr_task:Eden.t_int ~tr_res:Eden.t_int
              (fun t -> ([], t))
              xs)
      in
      List.sort compare res = List.sort compare xs)

let suite =
  ( "skeletons",
    [
      test_case "farm == map" `Quick farm_equals_map;
      test_case "farm custom np" `Quick farm_custom_np;
      test_case "master/worker flat" `Quick master_worker_flat_tasks;
      test_case "master/worker dynamic tasks" `Quick master_worker_dynamic_tasks;
      test_case "master/worker irregular" `Quick master_worker_irregular;
      test_case "ring token pass" `Quick ring_token_pass;
      test_case "torus coordinates" `Quick torus_coordinates;
      QCheck_alcotest.to_alcotest qcheck_farm;
      QCheck_alcotest.to_alcotest qcheck_master_worker;
    ] )
