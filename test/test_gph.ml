(** Tests for the GpH layer: par/seq, force semantics under both
    black-holing policies, evaluation strategies. *)

module Rts = Repro_parrts.Rts
module Api = Repro_parrts.Rts.Api
module Config = Repro_parrts.Config
module Cost = Repro_util.Cost
module Gph = Repro_core.Gph
module Machine = Repro_machine.Machine

let test_case = Alcotest.test_case
let check = Alcotest.check

let cfg ?(ncaps = 4) ?(blackholing = Config.Lazy_bh) () =
  let machine = Machine.make ~name:"t" ~cores:ncaps ~clock_ghz:1.0 () in
  let c = Config.default ~machine ~ncaps () in
  { c with blackholing; load_balance = Config.Work_stealing }

let run ?ncaps ?blackholing f = fst (Rts.run (cfg ?ncaps ?blackholing ()) f)

let force_memoises () =
  let v = run (fun () ->
      let count = ref 0 in
      let n = Gph.thunk ~cost:(Cost.cycles 100) (fun () -> incr count; 5) in
      let a = Gph.force n in
      let b = Gph.force n in
      (a, b, !count))
  in
  check Alcotest.(triple int int int) "evaluated once" (5, 5, 1) v

let return_is_value () =
  let v = run (fun () ->
      let n = Gph.return 9 in
      Gph.force n)
  in
  check Alcotest.int "return" 9 v

let par_evaluates_in_background () =
  let v = run (fun () ->
      let n = Gph.thunk ~cost:(Cost.make 100_000 ~alloc:4096) (fun () -> 11) in
      Gph.par n;
      (* give the spark time to be stolen and run *)
      Api.charge (Cost.make 10_000_000 ~alloc:65536);
      let was_done = Repro_heap.Node.is_value n in
      (was_done, Gph.force n))
  in
  check Alcotest.(pair bool int) "spark evaluated it" (true, 11) v

let seq_forces_now () =
  let v = run (fun () ->
      let n = Gph.thunk ~cost:(Cost.cycles 10) (fun () -> 3) in
      Gph.seq n;
      Repro_heap.Node.is_value n)
  in
  check Alcotest.bool "forced" true v

let strategies_equal_sequential () =
  let xs = List.init 30 (fun i -> i * i) in
  let v = run (fun () ->
      let nodes =
        List.map (fun x -> Gph.thunk ~cost:(Cost.cycles 1000) (fun () -> x + 1)) xs
      in
      Gph.par_list Gph.rwhnf nodes;
      List.map Gph.force nodes)
  in
  check Alcotest.(list int) "parList == map" (List.map (fun x -> x + 1) xs) v

let using_returns_argument () =
  let v = run (fun () ->
      let n = Gph.thunk ~cost:(Cost.cycles 5) (fun () -> 1) in
      let n' = Gph.using n Gph.rwhnf in
      Repro_heap.Node.is_value n' && Gph.force n' = 1)
  in
  check Alcotest.bool "using" true v

let r0_does_nothing () =
  let v = run (fun () ->
      let n = Gph.thunk ~cost:(Cost.cycles 5) (fun () -> 1) in
      Gph.r0 n;
      Repro_heap.Node.is_value n)
  in
  check Alcotest.bool "r0 leaves thunk" false v

(* Under eager black-holing, a shared thunk forced by many sparks must
   be evaluated exactly once; under lazy black-holing it may be
   duplicated but the result must still be correct. *)
let shared_thunk_eager_once () =
  let count, res = run ~blackholing:Config.Eager_bh (fun () ->
      let count = ref 0 in
      let shared =
        Gph.thunk ~cost:(Cost.make 500_000 ~alloc:8192) (fun () ->
            incr count;
            42)
      in
      let users =
        List.init 8 (fun _ ->
            Gph.thunk ~cost:(Cost.make 1_000 ~alloc:128) (fun () ->
                Gph.force shared + 1))
      in
      Gph.par_list Gph.rwhnf users;
      let sum = List.fold_left (fun a n -> a + Gph.force n) 0 users in
      (!count, sum))
  in
  check Alcotest.int "exactly one evaluation" 1 count;
  check Alcotest.int "all users correct" (8 * 43) res

let shared_thunk_lazy_correct () =
  let count, res = run ~blackholing:Config.Lazy_bh (fun () ->
      let count = ref 0 in
      let shared =
        Gph.thunk ~cost:(Cost.make 500_000 ~alloc:8192) (fun () ->
            incr count;
            42)
      in
      let users =
        List.init 8 (fun _ ->
            Gph.thunk ~cost:(Cost.make 1_000 ~alloc:128) (fun () ->
                Gph.force shared + 1))
      in
      Gph.par_list Gph.rwhnf users;
      let sum = List.fold_left (fun a n -> a + Gph.force n) 0 users in
      (!count, sum))
  in
  check Alcotest.bool "evaluated at least once" true (count >= 1);
  check Alcotest.int "result correct despite duplication" (8 * 43) res

(* [~forces_only] lets a duplicate return the installed value once its
   charge ends after the update.  Here a spark evaluates a shared
   thunk (1 ms at 1 GHz) on cap 1 while the main thread, 0.6 ms in,
   enters it again under lazy black-holing and finishes its charge
   after the spark's update.  A body that only returns a value gives
   the same virtual time and event log with and without the opt-in.
   A body that charges 0.4 ms inside itself loses that charge in the
   skipped duplicate, so the opted-in run ends at least 0.4 ms sooner.
   That is why the skip is opt-in, and why Mandelbrot's row thunks
   (which charge inside) and parfib's (which spark and make thunks)
   do not opt in. *)
let forces_only_skips_settled_duplicates () =
  let run ~forces_only ~inner =
    let v, r =
      Rts.run (cfg ~ncaps:2 ()) (fun () ->
          let shared =
            Gph.thunk ~forces_only ~cost:(Cost.cycles 1_000_000) (fun () ->
                if inner then Api.charge (Cost.cycles 400_000);
                42)
          in
          Gph.par shared;
          Api.charge (Cost.cycles 600_000);
          Gph.force shared)
    in
    check Alcotest.int "value" 42 v;
    check Alcotest.int "one duplicate entry" 1
      r.Repro_parrts.Report.dup_work_entries;
    ( r.elapsed_ns,
      Digest.to_hex (Digest.string (Repro_trace.Eventlog.dump r.eventlog)) )
  in
  check
    Alcotest.(pair int string)
    "a body that only returns: the opt-in changes nothing"
    (run ~forces_only:false ~inner:false)
    (run ~forces_only:true ~inner:false);
  let plain, _ = run ~forces_only:false ~inner:true in
  let opted, _ = run ~forces_only:true ~inner:true in
  check Alcotest.bool "a body that charges: the skipped duplicate drops 0.4 ms"
    true
    (plain - opted >= 400_000)

(* One thunk per element sparked under [parList rwhnf], then forced in
   order: the shape of every simulated GpH program, over random cap
   counts. *)
let qcheck_par_list_equals_map =
  QCheck.Test.make ~name:"parList + force == List.map (any ncaps)" ~count:40
    QCheck.(pair (int_bound 7) (small_list (int_range (-1000) 1000)))
    (fun (c, xs) ->
      (* bounds from 0, as QCheck's shrinker assumes *)
      let ncaps = c + 1 in
      let got =
        run ~ncaps (fun () ->
            let nodes =
              List.map
                (fun x -> Gph.thunk ~cost:(Cost.cycles 200) (fun () -> (2 * x) - 7))
                xs
            in
            Gph.par_list Gph.rwhnf nodes;
            List.map Gph.force nodes)
      in
      got = List.map (fun x -> (2 * x) - 7) xs)

let suite =
  ( "gph",
    [
      test_case "force memoises" `Quick force_memoises;
      test_case "return is a value" `Quick return_is_value;
      test_case "par evaluates in background" `Quick par_evaluates_in_background;
      test_case "seq forces now" `Quick seq_forces_now;
      test_case "parList == map" `Quick strategies_equal_sequential;
      test_case "using returns its argument" `Quick using_returns_argument;
      test_case "r0 does nothing" `Quick r0_does_nothing;
      test_case "shared thunk: eager evaluates once" `Quick shared_thunk_eager_once;
      test_case "shared thunk: lazy stays correct" `Quick shared_thunk_lazy_correct;
      test_case "forces_only skips settled duplicates only" `Quick
        forces_only_skips_settled_duplicates;
      QCheck_alcotest.to_alcotest qcheck_par_list_equals_map;
    ] )
