(** Tests for the Chase–Lev work-stealing deque. *)

open Repro_deque

let test_case = Alcotest.test_case
let check = Alcotest.check

(* ---------------- Ws_deque, owner-side semantics ---------------- *)

let deque_lifo_pop () =
  let q = Ws_deque.create () in
  List.iter (Ws_deque.push q) [ 1; 2; 3 ];
  check Alcotest.(option int) "pop newest" (Some 3) (Ws_deque.pop q);
  check Alcotest.(option int) "pop next" (Some 2) (Ws_deque.pop q);
  check Alcotest.(option int) "pop last" (Some 1) (Ws_deque.pop q);
  check Alcotest.(option int) "pop empty" None (Ws_deque.pop q)

let deque_fifo_steal () =
  let q = Ws_deque.create () in
  List.iter (Ws_deque.push q) [ 1; 2; 3 ];
  check Alcotest.(option int) "steal oldest" (Some 1) (Ws_deque.steal q);
  check Alcotest.(option int) "steal next" (Some 2) (Ws_deque.steal q);
  check Alcotest.(option int) "steal last" (Some 3) (Ws_deque.steal q);
  check Alcotest.(option int) "steal empty" None (Ws_deque.steal q)

let deque_mixed () =
  let q = Ws_deque.create () in
  List.iter (Ws_deque.push q) [ 1; 2; 3; 4 ];
  check Alcotest.(option int) "steal 1" (Some 1) (Ws_deque.steal q);
  check Alcotest.(option int) "pop 4" (Some 4) (Ws_deque.pop q);
  check Alcotest.int "size" 2 (Ws_deque.size q);
  check Alcotest.(option int) "steal 2" (Some 2) (Ws_deque.steal q);
  check Alcotest.(option int) "pop 3" (Some 3) (Ws_deque.pop q);
  check Alcotest.bool "empty" true (Ws_deque.is_empty q)

let deque_grows () =
  let q = Ws_deque.create () in
  (* push far beyond the initial capacity (16) *)
  for i = 1 to 1000 do
    Ws_deque.push q i
  done;
  check Alcotest.int "size" 1000 (Ws_deque.size q);
  for i = 1000 downto 501 do
    check Alcotest.(option int) "pop order" (Some i) (Ws_deque.pop q)
  done;
  for i = 1 to 500 do
    check Alcotest.(option int) "steal order" (Some i) (Ws_deque.steal q)
  done;
  check Alcotest.bool "empty" true (Ws_deque.is_empty q)

let deque_drain () =
  let q = Ws_deque.create () in
  List.iter (Ws_deque.push q) [ 1; 2; 3 ];
  check Alcotest.(list int) "drain pops LIFO" [ 3; 2; 1 ] (Ws_deque.drain q)

(* Model test: a random sequence of owner pushes/pops, steals and
   drains must behave like a reference double-ended queue. *)
let deque_qcheck_model =
  QCheck.Test.make ~name:"ws_deque matches reference deque model" ~count:500
    QCheck.(list (int_range 0 3))
    (fun ops ->
      let q = Ws_deque.create () in
      let model = ref ([] : int list) (* oldest first *) in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              incr next;
              Ws_deque.push q !next;
              model := !model @ [ !next ]
          | 1 -> (
              let got = Ws_deque.pop q in
              match List.rev !model with
              | [] -> if got <> None then ok := false
              | newest :: rest_rev ->
                  if got <> Some newest then ok := false;
                  model := List.rev rest_rev)
          | 2 -> (
              let got = Ws_deque.steal q in
              match !model with
              | [] -> if got <> None then ok := false
              | oldest :: rest ->
                  if got <> Some oldest then ok := false;
                  model := rest)
          | _ ->
              (* drain pops everything newest-first *)
              if Ws_deque.drain q <> List.rev !model then ok := false;
              model := [])
        ops;
      !ok && Ws_deque.size q = List.length !model)

(* The single-threaded model above cannot see steal/pop races, so also
   drive random owner operations against a real stealing domain: every
   pushed value is consumed exactly once (owner pops + steals + nothing
   left), and the stolen sequence is strictly increasing (steals take
   from the FIFO top, which only moves forward). *)
let deque_qcheck_concurrent_model =
  QCheck.Test.make
    ~name:"ws_deque random owner ops vs a real stealing domain" ~count:100
    QCheck.(list (int_range 0 2))
    (fun ops ->
      let q = Ws_deque.create () in
      let stop = Atomic.make false in
      let stealer =
        Domain.spawn (fun () ->
            let acc = ref [] in
            while not (Atomic.get stop) do
              match Ws_deque.steal q with
              | Some v -> acc := v :: !acc
              | None -> Domain.cpu_relax ()
            done;
            let rec sweep () =
              match Ws_deque.steal q with
              | Some v ->
                  acc := v :: !acc;
                  sweep ()
              | None -> ()
            in
            sweep ();
            List.rev !acc)
      in
      let next = ref 0 in
      let popped = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 | 1 ->
              (* biased toward pushes so the stealer has something to race *)
              incr next;
              Ws_deque.push q !next
          | _ -> (
              match Ws_deque.pop q with
              | Some v -> popped := v :: !popped
              | None -> ()))
        ops;
      let rec drain_own () =
        match Ws_deque.pop q with
        | Some v ->
            popped := v :: !popped;
            drain_own ()
        | None -> ()
      in
      drain_own ();
      Atomic.set stop true;
      let stolen = Domain.join stealer in
      let consumed = List.sort compare (!popped @ stolen) in
      let rec strictly_increasing = function
        | a :: (b :: _ as t) -> a < b && strictly_increasing t
        | _ -> true
      in
      consumed = List.init !next (fun i -> i + 1)
      && strictly_increasing stolen)

(* Concurrency stress: one owner domain pushing/popping, several
   stealer domains.  Every pushed element must be consumed exactly
   once. *)
let deque_domains_stress () =
  let q = Ws_deque.create () in
  let n = 20_000 in
  let nstealers = 3 in
  let stolen = Array.make nstealers 0 in
  let stop = Atomic.make false in
  let stealers =
    List.init nstealers (fun i ->
        Domain.spawn (fun () ->
            let count = ref 0 in
            while not (Atomic.get stop) do
              match Ws_deque.steal q with
              | Some _ -> incr count
              | None -> Domain.cpu_relax ()
            done;
            (* final sweep *)
            let rec sweep () =
              match Ws_deque.steal q with
              | Some _ ->
                  incr count;
                  sweep ()
              | None -> ()
            in
            sweep ();
            stolen.(i) <- !count))
  in
  let popped = ref 0 in
  for i = 1 to n do
    Ws_deque.push q i;
    if i mod 3 = 0 then
      match Ws_deque.pop q with Some _ -> incr popped | None -> ()
  done;
  (* drain own side *)
  let rec drain () =
    match Ws_deque.pop q with
    | Some _ ->
        incr popped;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  List.iter Domain.join stealers;
  let total = !popped + Array.fold_left ( + ) 0 stolen in
  check Alcotest.int "every element consumed exactly once" n total

(* Stronger race test, repeated: one owner pushing/popping against 3
   stealer domains, with a per-element consumption count — asserting
   not merely conservation of cardinality but that no element is lost
   AND none is duplicated.  Repeated >= 20 times so the interleaving
   space is actually explored. *)
let deque_domains_race_repeated () =
  let iterations = 20 in
  let n = 2_000 in
  let nstealers = 3 in
  for _iter = 1 to iterations do
    let q = Ws_deque.create () in
    (* seen.(i) counts consumptions of element i, across all domains *)
    let seen = Array.init n (fun _ -> Atomic.make 0) in
    let consume i = Atomic.incr seen.(i) in
    let stop = Atomic.make false in
    let stealers =
      List.init nstealers (fun _ ->
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                match Ws_deque.steal q with
                | Some i -> consume i
                | None -> Domain.cpu_relax ()
              done;
              let rec sweep () =
                match Ws_deque.steal q with
                | Some i ->
                    consume i;
                    sweep ()
                | None -> ()
              in
              sweep ()))
    in
    for i = 0 to n - 1 do
      Ws_deque.push q i;
      if i land 3 = 0 then
        match Ws_deque.pop q with Some j -> consume j | None -> ()
    done;
    let rec drain_own () =
      match Ws_deque.pop q with
      | Some j ->
          consume j;
          drain_own ()
      | None -> ()
    in
    drain_own ();
    Atomic.set stop true;
    List.iter Domain.join stealers;
    Array.iteri
      (fun i c ->
        let c = Atomic.get c in
        if c <> 1 then
          Alcotest.failf "iteration %d: element %d consumed %d times (lost=%b)"
            _iter i c (c = 0))
      seen
  done

let suite =
  ( "deque",
    [
      test_case "owner pop is LIFO" `Quick deque_lifo_pop;
      test_case "steal is FIFO" `Quick deque_fifo_steal;
      test_case "mixed pop/steal" `Quick deque_mixed;
      test_case "grows beyond initial capacity" `Quick deque_grows;
      test_case "drain" `Quick deque_drain;
      QCheck_alcotest.to_alcotest deque_qcheck_model;
      QCheck_alcotest.to_alcotest deque_qcheck_concurrent_model;
      test_case "multi-domain stress" `Slow deque_domains_stress;
      test_case "multi-domain race, exactly-once x20" `Slow
        deque_domains_race_repeated;
    ] )
