(** Tests for [Repro_mp.Star], the placement and exactly-once ledger
    that both the process farm and the simulated masterWorker skeleton
    run: one test per typed error, the wait for added tasks, and a
    property over random worker counts, prefetch values and task
    lists, pinned or not, with results returned in random order. *)

open Alcotest
module Star = Repro_mp.Star

let error_text = function
  | Star.Wrong_round { round; expected } ->
      Printf.sprintf "Wrong_round {round = %d; expected = %d}" round expected
  | Star.Unknown_task t -> Printf.sprintf "Unknown_task %d" t
  | Star.Duplicate t -> Printf.sprintf "Duplicate %d" t

let error = testable (fun ppf e -> Fmt.string ppf (error_text e)) ( = )

let placement =
  testable
    (fun ppf (p : string Star.placement) ->
      Fmt.pf ppf "%s on %d as %d" p.payload p.worker p.task)
    ( = )

let refused what want = function
  | Ok _ -> failf "%s: accepted" what
  | Error e -> check error what want e

let accepted what = function
  | Ok r -> r
  | Error e -> failf "%s: %s" what (error_text e)

(* Round 3, two workers of one slot each: "a" on 0, "b" on 1, "c"
   pooled. *)
let three_tasks () =
  let st, placed =
    Star.start ~workers:2 ~prefetch:1 ~round:3 ~pinned:false [ "a"; "b"; "c" ]
  in
  check (list placement) "worker-major priming"
    [
      { worker = 0; task = 0; payload = "a" };
      { worker = 1; task = 1; payload = "b" };
    ]
    placed;
  st

let wrong_round () =
  let st = three_tasks () in
  refused "a round-2 result in round 3"
    (Star.Wrong_round { round = 2; expected = 3 })
    (Star.result st ~worker:0 ~round:2 ~task:0 []);
  ignore (accepted "the same result in round 3"
            (Star.result st ~worker:0 ~round:3 ~task:0 []))

let unknown_task () =
  let st = three_tasks () in
  List.iter
    (fun (worker, task, what) ->
      refused what (Star.Unknown_task task)
        (Star.result st ~worker ~round:3 ~task []))
    [
      (0, 3, "a task the round never had");
      (0, -1, "a negative task");
      (0, 1, "the other worker's task");
      (1, 2, "a pooled task");
    ]

let duplicate () =
  let st = three_tasks () in
  let st, placed =
    accepted "first result" (Star.result st ~worker:0 ~round:3 ~task:0 [])
  in
  check (list placement) "answered with the pooled task"
    [ { worker = 0; task = 2; payload = "c" } ]
    placed;
  refused "the same result again" (Star.Duplicate 0)
    (Star.result st ~worker:0 ~round:3 ~task:0 []);
  refused "the same task from the other worker" (Star.Duplicate 0)
    (Star.result st ~worker:1 ~round:3 ~task:0 [])

(* Two workers of two slots: worker 1 returns both its tasks while the
   pool is empty, then worker 0 returns one that adds two tasks.  Both
   go to worker 1, which waited first; worker 0 is not overfilled. *)
let added_tasks_go_to_waiting_workers () =
  let st, _ =
    Star.start ~workers:2 ~prefetch:2 ~round:0 ~pinned:false
      [ "a"; "b"; "c"; "d" ]
  in
  let result st ~worker ~task adds =
    accepted "result" (Star.result st ~worker ~round:0 ~task adds)
  in
  let st, p1 = result st ~worker:1 ~task:2 [] in
  let st, p2 = result st ~worker:1 ~task:3 [] in
  check (list placement) "nothing left for worker 1" [] (p1 @ p2);
  let st, placed = result st ~worker:0 ~task:0 [ "e"; "f" ] in
  check (list placement) "the added tasks go to the waiting worker"
    [
      { worker = 1; task = 4; payload = "e" };
      { worker = 1; task = 5; payload = "f" };
    ]
    placed;
  check bool "tasks still held" false (Star.finished st)

(* Drive one round to its end from a random seed.  The tasks' payloads
   are their expected numbers.  Before each result, one time in three,
   a bad result (wrong round, unknown or duplicate task) must be
   refused with its typed error; the round goes on from the same
   state. *)
let drive ~workers ~prefetch ~pinned ~initial ~seed =
  let rng = Random.State.make [| seed |] in
  let round = 7 in
  let holder = Hashtbl.create 16 (* task -> worker *) in
  let done_ = Hashtbl.create 16 in
  let holds = Array.make workers 0 in
  let numbered = ref initial and budget = ref (Random.State.int rng 30) in
  let bad fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
  let place (p : int Star.placement) =
    if Hashtbl.mem holder p.task then bad "task %d placed twice" p.task;
    if p.payload <> p.task then bad "task %d numbered %d" p.payload p.task;
    if p.worker < 0 || p.worker >= workers then bad "no worker %d" p.worker;
    if pinned && p.worker <> p.task mod workers then
      bad "pinned task %d on worker %d" p.task p.worker;
    Hashtbl.replace holder p.task p.worker;
    holds.(p.worker) <- holds.(p.worker) + 1;
    if (not pinned) && holds.(p.worker) > prefetch then
      bad "worker %d holds %d tasks" p.worker holds.(p.worker)
  in
  let expect what want r =
    match r with
    | Error e when e = want -> ()
    | Error e -> bad "%s: %s" what (error_text e)
    | Ok _ -> bad "%s: accepted" what
  in
  let try_bad st task worker =
    match Random.State.int rng 3 with
    | 0 ->
        expect "wrong round"
          (Star.Wrong_round { round = round + 1; expected = round })
          (Star.result st ~worker ~round:(round + 1) ~task [])
    | 1 ->
        (* a task this worker does not hold: never numbered, held by
           another worker, or still pooled *)
        let other =
          Hashtbl.fold
            (fun t w acc ->
              if w <> worker && not (Hashtbl.mem done_ t) then t :: acc
              else acc)
            holder []
        in
        let pooled =
          List.filter
            (fun t -> not (Hashtbl.mem holder t))
            (List.init !numbered Fun.id)
        in
        List.iter
          (fun t ->
            expect "unknown task" (Star.Unknown_task t)
              (Star.result st ~worker ~round ~task:t []))
          ((!numbered + Random.State.int rng 3) :: (other @ pooled))
    | _ ->
        Hashtbl.iter
          (fun t _ ->
            expect "duplicate" (Star.Duplicate t)
              (Star.result st ~worker ~round ~task:t []))
          done_
  in
  let st, placed =
    Star.start ~workers ~prefetch ~round ~pinned (List.init initial Fun.id)
  in
  List.iter place placed;
  let rec go st =
    let outstanding =
      Hashtbl.fold
        (fun t w acc -> if Hashtbl.mem done_ t then acc else (t, w) :: acc)
        holder []
      |> List.sort compare
    in
    if (not pinned) && Hashtbl.length holder < !numbered then
      Array.iteri
        (fun w h ->
          if h <> prefetch then
            bad "worker %d holds %d while tasks are pooled" w h)
        holds;
    match outstanding with
    | [] ->
        if not (Star.finished st) then bad "round not finished";
        if Hashtbl.length done_ <> !numbered then
          bad "%d of %d results accepted" (Hashtbl.length done_) !numbered
    | _ -> (
        if Star.finished st then bad "finished with tasks held";
        let task, worker =
          List.nth outstanding (Random.State.int rng (List.length outstanding))
        in
        if Random.State.int rng 3 = 0 then try_bad st task worker;
        let k = min !budget (Random.State.int rng 4) in
        let adds = List.init k (fun i -> !numbered + i) in
        numbered := !numbered + k;
        budget := !budget - k;
        match Star.result st ~worker ~round ~task adds with
        | Error e -> bad "result of task %d refused: %s" task (error_text e)
        | Ok (st, placed) ->
            Hashtbl.replace done_ task ();
            holds.(worker) <- holds.(worker) - 1;
            List.iter place placed;
            go st)
  in
  go st;
  true

let qcheck_star =
  QCheck.Test.make
    ~name:"star places each task once and accepts each result once"
    ~count:500
    QCheck.(pair (quad (int_bound 4) (int_bound 2) bool (int_bound 20)) int)
    (fun ((w, p, pinned, initial), seed) ->
      (* bounds from 0, as QCheck's shrinker assumes *)
      drive ~workers:(w + 1) ~prefetch:(p + 1) ~pinned ~initial ~seed)

let rejects_bad_sizes () =
  List.iter
    (fun (workers, prefetch) ->
      match Star.start ~workers ~prefetch ~round:0 ~pinned:false [ () ] with
      | _ -> failf "workers %d prefetch %d accepted" workers prefetch
      | exception Invalid_argument _ -> ())
    [ (0, 1); (1, 0) ]

let suite =
  ( "star",
    [
      test_case "wrong round is a typed error" `Quick wrong_round;
      test_case "unknown task is a typed error" `Quick unknown_task;
      test_case "duplicate result is a typed error" `Quick duplicate;
      test_case "added tasks go to waiting workers first" `Quick
        added_tasks_go_to_waiting_workers;
      test_case "rejects workers or prefetch < 1" `Quick rejects_bad_sizes;
      QCheck_alcotest.to_alcotest qcheck_star;
    ] )
