(** Tests for the real-hardware executor ([lib/exec]): pool/future
    semantics, strategy combinators, and — the acceptance gate —
    deterministic results for every wired workload at 1, 2 and 4
    domains. *)

module Pool = Repro_exec.Pool
module Future = Repro_exec.Future
module S = Repro_exec.Strategies
module Workload = Repro_exec.Workload

let test_case = Alcotest.test_case
let check = Alcotest.check

(* ---------------- pool + future basics ---------------- *)

let par_joins () =
  Pool.with_pool ~cores:2 (fun () ->
      let a, b = S.par (fun () -> 6 * 7) (fun () -> "ok") in
      check Alcotest.int "left" 42 a;
      check Alcotest.string "right" "ok" b)

let outside_pool_is_sequential () =
  (* no pool: sparks fizzle, force evaluates in place *)
  let trace = ref [] in
  let fut = Future.spark (fun () -> trace := `Spark :: !trace; 1) in
  check Alcotest.bool "not yet run" false (Future.is_done fut);
  let v = Future.force fut in
  check Alcotest.int "value" 1 v;
  check Alcotest.int "ran exactly once" 1 (List.length !trace);
  check Alcotest.int "force again is cached" 1 (Future.force fut)

let future_evaluated_once () =
  (* force the same future from many sparks racing across domains *)
  Pool.with_pool ~cores:4 (fun () ->
      let hits = Atomic.make 0 in
      let shared = Future.spark (fun () -> Atomic.fetch_and_add hits 1) in
      let forcers = List.init 16 (fun _ () -> Future.force shared) in
      let vs = S.par_list forcers in
      List.iter (fun v -> check Alcotest.int "same claim" 0 v) vs;
      check Alcotest.int "evaluated exactly once" 1 (Atomic.get hits))

let exceptions_propagate () =
  Pool.with_pool ~cores:2 (fun () ->
      let fut = Future.spark (fun () -> failwith "boom") in
      match Future.force fut with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> check Alcotest.string "message" "boom" msg)

let par_list_order () =
  Pool.with_pool ~cores:4 (fun () ->
      let fs = List.init 100 (fun i () -> i * i) in
      let expect = List.init 100 (fun i -> i * i) in
      check Alcotest.(list int) "ordered" expect (S.par_list fs))

(* The sub-ranges [par_range] hands to [f], in the order [combine]
   sees them, and how many times [f] was called. *)
let ranges_of ~chunks lo hi =
  let calls = Atomic.make 0 in
  let rs =
    S.par_range ~chunks lo hi
      (fun a b ->
        Atomic.incr calls;
        (a, b))
      ~combine:(fun acc r -> r :: acc)
      ~init:[]
  in
  (List.rev rs, Atomic.get calls)

(* (chunks, lo, hi): fewer indices than chunks, as many, more, and
   chunks <= 0 *)
let range_shapes = [ (10, 1, 3); (5, 0, 4); (7, 0, 999); (0, 5, 9); (-3, 5, 9) ]

let par_range_covers_once () =
  Pool.with_pool ~cores:3 (fun () ->
      List.iter
        (fun (chunks, lo, hi) ->
          let label = Printf.sprintf "chunks %d over %d..%d" chunks lo hi in
          let rs, calls = ranges_of ~chunks lo hi in
          check Alcotest.int (label ^ ": sub-ranges")
            (max 1 (min chunks (hi - lo + 1)))
            (List.length rs);
          check Alcotest.int (label ^ ": one call each") (List.length rs) calls;
          (* non-empty, each starting where the previous ended: from lo
             up to hi exactly once, in ascending order *)
          let next =
            List.fold_left
              (fun expect (a, b) ->
                check Alcotest.int (label ^ ": contiguous") expect a;
                check Alcotest.bool (label ^ ": non-empty") true (a <= b);
                b + 1)
              lo rs
          in
          check Alcotest.int (label ^ ": ends at hi") (hi + 1) next)
        range_shapes)

let par_range_covers () =
  Pool.with_pool ~cores:4 (fun () ->
      let total =
        S.par_range ~chunks:5 1 100
          (fun lo hi ->
            let s = ref 0 in
            for i = lo to hi do s := !s + i done;
            !s)
          ~combine:( + ) ~init:0
      in
      check Alcotest.int "1..100" 5050 total;
      check Alcotest.int "empty range" 0
        (S.par_range ~chunks:4 5 4 (fun _ _ -> 1) ~combine:( + ) ~init:0))

let nested_par () =
  Pool.with_pool ~cores:4 (fun () ->
      let rec tree depth =
        if depth = 0 then 1
        else
          let a, b =
            S.par (fun () -> tree (depth - 1)) (fun () -> tree (depth - 1))
          in
          a + b
      in
      check Alcotest.int "2^8 leaves" 256 (tree 8))

let pool_reusable_across_runs () =
  let p = Pool.create ~cores:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      for i = 1 to 5 do
        let v =
          Pool.run p (fun () ->
              List.fold_left ( + ) 0 (S.par_map (fun x -> x * i) [ 1; 2; 3 ]))
        in
        check Alcotest.int "run result" (6 * i) v
      done)

(* ---------------- strategy edge cases ---------------- *)

let par_range_edges () =
  Pool.with_pool ~cores:2 (fun () ->
      let rs, calls = ranges_of ~chunks:4 5 4 in
      check Alcotest.int "hi < lo: f never called" 0 calls;
      check Alcotest.(list (pair int int)) "hi < lo: init" [] rs;
      check Alcotest.int "hi < lo: init returned" 17
        (S.par_range ~chunks:4 3 1 (fun _ _ -> 1) ~combine:( + ) ~init:17);
      check Alcotest.string "combine sees ascending sub-ranges"
        "[0..2][3..5][6..7]"
        (S.par_range ~chunks:3 0 7
           (fun a b -> Printf.sprintf "[%d..%d]" a b)
           ~combine:( ^ ) ~init:""));
  (* a fresh pool per call, so its ledger counts that call alone *)
  List.iter
    (fun (chunks, lo, hi) ->
      let p = Pool.create ~cores:2 () in
      Pool.run p (fun () ->
          S.par_range ~chunks lo hi
            (fun _ _ -> ())
            ~combine:(fun () () -> ())
            ~init:());
      Pool.shutdown p;
      let want = if hi < lo then 0 else max 1 (min chunks (hi - lo + 1)) in
      check Alcotest.int
        (Printf.sprintf "chunks %d over %d..%d: sparks" chunks lo hi)
        want (Pool.events p).sparks_created)
    ((4, 5, 4) :: range_shapes)

let exception_propagates_across_domains_repeated () =
  (* Repeat with worker noise so the failing body is sometimes run by a
     stealing domain and sometimes in place — both must surface the
     exception at force, and a second force re-raises the cached one. *)
  Pool.with_pool ~cores:4 (fun () ->
      for i = 1 to 20 do
        let noise = List.init 8 (fun j -> Future.spark (fun () -> j * i)) in
        let bad =
          Future.spark (fun () -> if i >= 0 then failwith "crash" else 0)
        in
        (match Future.force bad with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure msg -> check Alcotest.string "message" "crash" msg);
        (match Future.force bad with
        | _ -> Alcotest.fail "expected cached Failure"
        | exception Failure _ -> ());
        List.iteri
          (fun j f -> check Alcotest.int "noise result" (j * i) (Future.force f))
          noise
      done)

(* ---------------- scheduler observability counters ---------------- *)

let events_ledger_balances () =
  let p = Pool.create ~cores:3 () in
  let xs = List.init 50 Fun.id in
  let v =
    Pool.run p (fun () ->
        List.fold_left ( + ) 0 (S.par_map (fun x -> x * x) xs))
  in
  Pool.shutdown p;
  let e = Pool.events p in
  check Alcotest.int "result" (List.fold_left (fun a x -> a + (x * x)) 0 xs) v;
  check Alcotest.int "one spark per element" 50 e.Pool.sparks_created;
  check Alcotest.int "created = run + fizzled" e.Pool.sparks_created
    (e.Pool.sparks_run + e.Pool.sparks_fizzled);
  check Alcotest.bool "steals counted within attempts" true
    (e.Pool.steals <= e.Pool.steal_attempts)

let events_ledger_balances_after_many_runs () =
  let p = Pool.create ~cores:4 () in
  for _ = 1 to 5 do
    ignore
      (Pool.run p (fun () ->
           S.par_range ~chunks:8 1 200
             (fun lo hi -> hi - lo)
             ~combine:( + ) ~init:0))
  done;
  Pool.shutdown p;
  let e = Pool.events p in
  check Alcotest.int "ledger balances over reuse" e.Pool.sparks_created
    (e.Pool.sparks_run + e.Pool.sparks_fizzled);
  check Alcotest.int "5 runs x 8 ranges" 40 e.Pool.sparks_created

(* The shared-heap sumeuler allocates per sub-range, not per index:
   a list of its 50,000 inputs alone would be 150,000 words.  On a
   1-domain pool there are no thieves, so the calling domain's count
   is deterministic. *)
let sumeuler_allocates_per_range () =
  let size = 50_000 in
  let p = Pool.create ~cores:1 () in
  let got, words =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown p)
      (fun () ->
        let w0 = Gc.minor_words () in
        let got = Pool.run p (fun () -> Workload.Sumeuler.run ~size ()) in
        (got, Gc.minor_words () -. w0))
  in
  check Alcotest.int "checksum" (Workload.Sumeuler.reference ~size) got;
  check Alcotest.int "512 sparks" 512 (Pool.events p).sparks_created;
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words < 50,000" words)
    true (words < 50_000.0)

(* ---------------- workload determinism at 1/2/4 domains ---------------- *)

(* Runs [f ()] on a domain of its own and fails [what] unless it
   returns within 30 s, so a hang fails the named case instead of
   stalling the suite (the domain is then left running, never
   joined). *)
let within what f =
  let seconds = 30.0 in
  let outcome = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set outcome (Some (match f () with v -> Ok v | exception e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while Atomic.get outcome = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  match Atomic.get outcome with
  | None -> Alcotest.failf "%s: still running after %.0f s" what seconds
  | Some r -> (
      Domain.join d;
      match r with Ok v -> v | Error e -> raise e)

let workload_deterministic (module W : Workload.S) () =
  let size = W.quick_size in
  let expect = W.reference ~size in
  List.iter
    (fun cores ->
      let what =
        Printf.sprintf "%s size %d at %d domain(s) = reference" W.name size cores
      in
      check Alcotest.int what expect
        (within what (fun () -> Pool.with_pool ~cores (fun () -> W.run ~size ()))))
    [ 1; 2; 4 ]

let matmul_kernel_matches_mul_ref () =
  (* every element of Matrix.mul_rows agrees bit-for-bit with
     Matrix.mul_ref: every range of rows (the empty one too, and odd
     rows left after the pairs) for every count (0-3) of columns left
     over after the four-column groups; at 24 and 67, ranges of odd and
     even length from odd and even rows *)
  let module M = Repro_workloads.Matrix in
  let bits row = Array.map Int64.bits_of_float row in
  let check_range a bt c n lo hi =
    let rows = M.create (max 0 (hi - lo + 1)) n in
    M.mul_rows ~into:rows (Array.sub a lo (Array.length rows)) bt;
    Array.iteri
      (fun r row ->
        check
          Alcotest.(array int64)
          (Printf.sprintf "n %d rows %d..%d row %d" n lo hi (lo + r))
          (bits c.(lo + r)) (bits row))
      rows
  in
  let inputs n =
    let a = M.random ~seed:11 n and b = M.random ~seed:23 n in
    (a, Array.init n (fun j -> Array.init n (fun i -> b.(i).(j))), M.mul_ref a b)
  in
  List.iter
    (fun n ->
      let a, bt, c = inputs n in
      for lo = 0 to n - 1 do
        for hi = lo - 1 to n - 1 do
          check_range a bt c n lo hi
        done
      done)
    [ 1; 2; 3; 4; 5; 7; 8; 9 ];
  List.iter
    (fun n ->
      let a, bt, c = inputs n in
      List.iter
        (fun (lo, hi) -> check_range a bt c n lo hi)
        [ (0, n - 1); (1, 4); (2, 4); (3, 3); (0, 6); (1, n - 2);
          (n - 2, n - 1); (n - 1, n - 1) ])
    [ 24; 67 ];
  (* the unchecked reads sit behind one length check per row *)
  let a, bt, _ = inputs 9 in
  let short m i =
    Array.mapi (fun r row -> if r = i then Array.sub row 0 8 else row) m
  in
  List.iter
    (fun (what, into, a, bt) ->
      Alcotest.check_raises what
        (Invalid_argument "Matrix.mul_rows: ragged matrix") (fun () ->
          M.mul_rows ~into a bt))
    [
      ("ragged a", M.create 9 9, short a 5, bt);
      ("ragged bt", M.create 9 9, a, short bt 8);
      ("ragged into", short (M.create 9 9) 2, a, bt);
    ];
  Alcotest.check_raises "a row of into per row of a"
    (Invalid_argument "Matrix.mul_rows: row counts differ") (fun () ->
      M.mul_rows ~into:(M.create 8 9) a bt)

(* Every spark draws its own block of bt's columns, then every spark
   its own rows of a: sizes below the chunk count leave chunks of one
   row, 67 leaves three columns past the kernel's four-column groups,
   384 is the benchmark's size, and 3 and 4 domains outnumber a 2-core
   host's cores. *)
let matmul_matches_reference () =
  let module W = Workload.Matmul in
  List.iter
    (fun size ->
      let expect = W.reference ~size in
      List.iter
        (fun cores ->
          let what =
            Printf.sprintf "matmul size %d at %d domain(s) = reference" size cores
          in
          check Alcotest.int what expect
            (within what (fun () ->
                 Pool.with_pool ~cores (fun () -> W.run ~size ()))))
        [ 1; 2; 3; 4 ])
    [ 1; 2; 3; 67; 384 ]

(* One block per worker: sizes below the worker count leave empty
   blocks, 3 and 4 domains outnumber a 2-core host's cores, 67 leaves
   three columns past Apsp.relax's last group of eight lanes, and 256
   is the benchmark's size. *)
let apsp_matches_floyd_warshall () =
  let module A = Repro_workloads.Apsp in
  List.iter
    (fun size ->
      let expect =
        Int64.to_int
          (Int64.bits_of_float (A.checksum (A.floyd_warshall (A.graph size))))
      in
      List.iter
        (fun cores ->
          let what =
            Printf.sprintf "apsp size %d at %d domain(s) = floyd_warshall" size
              cores
          in
          let got =
            within what (fun () ->
                Pool.with_pool ~cores (fun () -> Workload.Apsp_w.run ~size ()))
          in
          check Alcotest.int what expect got)
        [ 1; 2; 3; 4 ])
    [ 1; 2; 3; 17; 48; 67; 256 ]

(* apsp sparks one block per worker and the caller claims block 0
   before it can be stolen (the others cannot finish without its
   rows), so block 0's runner always fizzles and every other runs. *)
let apsp_spark_ledger () =
  let module W = Workload.Apsp_w in
  let size = W.quick_size in
  List.iter
    (fun p ->
      let what = Printf.sprintf "apsp at %d worker(s)" p in
      let got, (e : Pool.events) =
        within what (fun () ->
            let pool = Pool.create ~cores:p () in
            let got =
              Fun.protect
                ~finally:(fun () -> Pool.shutdown pool)
                (fun () -> Pool.run pool (fun () -> W.run ~size ()))
            in
            (got, Pool.events pool))
      in
      check Alcotest.int (what ^ ": checksum") (W.reference ~size) got;
      check Alcotest.int (what ^ ": one spark per worker") p e.sparks_created;
      check Alcotest.int (what ^ ": the helpers run theirs") (p - 1) e.sparks_run;
      check Alcotest.int (what ^ ": block 0's fizzles") 1 e.sparks_fizzled)
    [ 1; 2; 3; 4 ]

(* ---------------- measurement on domains ---------------- *)

module Measure = Repro_metrics.Measure

let domain_sweep ~repeats ~size name =
  let m = Workload.find name |> Option.get in
  Measure.sweep ~repeats ~ladder:[ 1; 2 ]
    (fun cores -> Workload.sample m ~size ~cores)

let harness_sweep_shape () =
  let ms = domain_sweep ~repeats:2 ~size:500 "sumeuler" in
  check Alcotest.int "two rows" 2 (List.length ms);
  let base = List.hd ms in
  check (Alcotest.float 1e-9) "baseline speedup" 1.0 base.Measure.speedup;
  List.iter
    (fun (r : Measure.measurement) ->
      check Alcotest.int "same checksum" base.result r.result;
      check Alcotest.bool "positive time" true (r.mean_ns > 0.0);
      (* GC deltas are taken between two quick_stats, so they can
         never go backwards *)
      check Alcotest.bool "minor GCs non-negative" true
        (r.gc.minor_collections >= 0);
      check Alcotest.bool "major GCs non-negative" true
        (r.gc.major_collections >= 0);
      check Alcotest.bool "minor words non-negative" true
        (r.gc.minor_words >= 0.0))
    ms

(* A domains sample carries the pool's counters the way a processes
   sample carries the PEs': the spark ledger balances and the
   per-worker rows sum to the totals. *)
let sample_carries_pool_counts () =
  let module W = (val Option.get (Workload.find "sumeuler")) in
  let s = Workload.sample (module W) ~size:W.quick_size ~cores:2 in
  let get row k =
    match List.assoc_opt k row with
    | Some v -> v
    | None -> Alcotest.failf "no %S count" k
  in
  let created = get s.counts "sparks_created" in
  check Alcotest.bool "sparks created" true (created > 0.);
  check (Alcotest.float 0.) "created = run + fizzled" created
    (get s.counts "sparks_run" +. get s.counts "sparks_fizzled");
  check Alcotest.int "one row per domain" 2 (Array.length s.per_worker);
  List.iter
    (fun (k, total) ->
      check (Alcotest.float 0.)
        (Printf.sprintf "per-worker %s sums to the total" k)
        total
        (Array.fold_left (fun acc row -> acc +. get row k) 0. s.per_worker))
    s.counts

(* A run's allocation is counted on every domain even when no minor
   collection fell inside it: parfib at its quick size allocates its
   sparks in far less than a minor heap. *)
let sample_counts_minor_words () =
  let module W = Workload.Parfib in
  List.iter
    (fun cores ->
      let s = Workload.sample (module W) ~size:W.quick_size ~cores in
      check Alcotest.bool
        (Printf.sprintf "parfib at %d domain(s): %.0f minor words > 0" cores
           s.gc.minor_words)
        true (s.gc.minor_words > 0.0);
      check Alcotest.bool
        (Printf.sprintf "parfib at %d domain(s): minor GCs non-negative" cores)
        true
        (s.gc.minor_collections >= 0))
    [ 1; 2 ]

let core_counts () =
  let ladder = Measure.core_counts_up_to in
  check Alcotest.(list int) "8" [ 1; 2; 4; 8 ] (ladder 8);
  check Alcotest.(list int) "6" [ 1; 2; 4; 6 ] (ladder 6);
  check Alcotest.(list int) "1" [ 1 ] (ladder 1)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let json_document_valid () =
  let ms = domain_sweep ~repeats:1 ~size:18 "parfib" in
  let s = Repro_util.Json_out.to_string (Measure.json_document ms) in
  check Alcotest.bool "mentions schema" true
    (contains ~sub:"repro/measure/v1" s);
  check Alcotest.bool "names the backend" true
    (contains ~sub:"\"backend\": \"domains\"" s);
  check Alcotest.bool "has speedup field" true (contains ~sub:"\"speedup\"" s);
  check Alcotest.bool "one row per core count" true
    (contains ~sub:"\"workers\": 2" s);
  check Alcotest.bool "carries GC counters" true
    (contains ~sub:"\"gc_minor_collections\"" s)

let suite =
  let workload_cases =
    List.map
      (fun (module W : Workload.S) ->
        test_case
          (Printf.sprintf "workload %s deterministic at 1/2/4 domains" W.name)
          `Quick
          (workload_deterministic (module W)))
      Workload.all
  in
  ( "exec",
    [
      test_case "par joins" `Quick par_joins;
      test_case "sparks fizzle outside a pool" `Quick outside_pool_is_sequential;
      test_case "shared future evaluated once" `Quick future_evaluated_once;
      test_case "exceptions propagate through force" `Quick exceptions_propagate;
      test_case "par_list keeps order" `Quick par_list_order;
      test_case "par_range covers every index once" `Quick par_range_covers_once;
      test_case "par_range covers and handles empty" `Quick par_range_covers;
      test_case "nested par" `Quick nested_par;
      test_case "pool reusable across runs" `Quick pool_reusable_across_runs;
      test_case "par_range edge cases" `Quick par_range_edges;
      test_case "exceptions propagate across domains x20" `Quick
        exception_propagates_across_domains_repeated;
      test_case "spark ledger: created = run + fizzled" `Quick
        events_ledger_balances;
      test_case "spark ledger balances across pool reuse" `Quick
        events_ledger_balances_after_many_runs;
      test_case "matmul kernel = mul_ref bitwise" `Quick
        matmul_kernel_matches_mul_ref;
      test_case "matmul = reference bitwise at 1-4 domains" `Quick
        matmul_matches_reference;
      test_case "apsp = floyd_warshall bitwise" `Quick apsp_matches_floyd_warshall;
      test_case "apsp sparks one block per worker" `Quick apsp_spark_ledger;
      test_case "sumeuler allocates per sub-range" `Quick
        sumeuler_allocates_per_range;
      test_case "harness sweep shape" `Quick harness_sweep_shape;
      test_case "sample carries the pool's counts" `Quick
        sample_carries_pool_counts;
      test_case "sample counts minor words on every domain" `Quick
        sample_counts_minor_words;
      test_case "core count ladder" `Quick core_counts;
      test_case "BENCH_exec json renders" `Quick json_document_valid;
    ]
    @ workload_cases )
