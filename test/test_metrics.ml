(** Tests for the metrics layer ([lib/metrics]): HDR histogram error
    bounds and merge laws, sharded-counter exactness under real
    domains, snapshot algebra, the end-of-run JSON document, health
    detectors, and the dist piggyback path (the 2-PE case re-executes
    this test binary as the worker, like [Test_dist]). *)

module Hdr = Repro_metrics.Hdr
module M = Repro_metrics.Metrics
module Health = Repro_metrics.Health
module Json = Repro_util.Json_out

let test_case = Alcotest.test_case
let check = Alcotest.check

(* ---------------- HDR bucket geometry ---------------- *)

let sb = Hdr.default_sub_bits

let hdr_geometry () =
  (* values below 2^(sub_bits+1) are exact: one bucket per value *)
  for v = 0 to (2 lsl sb) - 1 do
    let i = Hdr.index_of ~sub_bits:sb v in
    check Alcotest.int "small lower bound" v (Hdr.lower_bound ~sub_bits:sb i);
    check Alcotest.int "small upper bound" v (Hdr.upper_bound ~sub_bits:sb i)
  done;
  (* every value lands inside its bucket, with bounded relative width *)
  List.iter
    (fun v ->
      let i = Hdr.index_of ~sub_bits:sb v in
      let lo = Hdr.lower_bound ~sub_bits:sb i
      and hi = Hdr.upper_bound ~sub_bits:sb i in
      check Alcotest.bool
        (Printf.sprintf "v=%d in [%d,%d]" v lo hi)
        true
        (lo <= v && v <= hi);
      check Alcotest.bool
        (Printf.sprintf "width bound at %d" v)
        true
        (hi - lo + 1 <= max 1 (v / (1 lsl sb))))
    [ 64; 65; 1_000; 123_456; 1_000_000_000; max_int / 2; max_int ];
  (* negatives clamp to bucket 0 *)
  check Alcotest.int "negative clamps" 0 (Hdr.index_of ~sub_bits:sb (-5))

(* Quantile estimates from bucket midpoints stay within the advertised
   relative error of the exact rank statistic. *)
let hdr_quantile_qcheck =
  QCheck.Test.make ~name:"hdr quantile within relative error bound" ~count:300
    QCheck.(
      pair
        (pair (int_range 0 1_000_000) (list_of_size Gen.(0 -- 119) (int_range 0 1_000_000)))
        (int_range 0 100))
    (fun ((x, rest), qpct) ->
      (* a head and a tail, so no shrink reaches the empty list *)
      let xs = x :: rest in
      let q = float_of_int qpct /. 100. in
      let h = Hdr.Local.create () in
      List.iter (Hdr.Local.observe h) xs;
      let s = Hdr.Local.snapshot h in
      let sorted = List.sort compare xs in
      let n = List.length xs in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let exact = float_of_int (List.nth sorted (rank - 1)) in
      let est = Hdr.quantile s q in
      Float.abs (est -. exact) <= (exact /. float_of_int (1 lsl sb)) +. 1.)

(* Count and sum are exact regardless of bucketing, so the mean is too. *)
let hdr_mean_exact =
  QCheck.Test.make ~name:"hdr mean is exact" ~count:200
    QCheck.(
      pair (int_range 0 1_000_000_000)
        (list_of_size Gen.(0 -- 79) (int_range 0 1_000_000_000)))
    (fun (x, rest) ->
      let xs = x :: rest in
      let h = Hdr.Local.create () in
      List.iter (Hdr.Local.observe h) xs;
      let s = Hdr.Local.snapshot h in
      s.Hdr.count = List.length xs
      && s.Hdr.sum = List.fold_left ( + ) 0 xs
      && s.Hdr.min_v = List.fold_left min max_int xs
      && s.Hdr.max_v = List.fold_left max min_int xs
      && Hdr.mean s = float_of_int s.Hdr.sum /. float_of_int s.Hdr.count)

(* The sharding identity the registry relies on: observing a stream
   split across two histograms and merging the snapshots is exactly the
   snapshot of the whole stream. *)
let hdr_merge_qcheck =
  QCheck.Test.make ~name:"merge of shards = merge of streams" ~count:300
    QCheck.(list (pair bool (int_range 0 2_000_000_000)))
    (fun xs ->
      let a = Hdr.Local.create ()
      and b = Hdr.Local.create ()
      and whole = Hdr.Local.create () in
      List.iter
        (fun (left, v) ->
          Hdr.Local.observe (if left then a else b) v;
          Hdr.Local.observe whole v)
        xs;
      Hdr.merge (Hdr.Local.snapshot a) (Hdr.Local.snapshot b)
      = Hdr.Local.snapshot whole)

(* The written histogram is lossless: parsing its JSON text back
   recovers every field of the snapshot.  The reader lives here because
   nothing in the program reads a metrics document. *)
let hdr_of_json j =
  let module J = Repro_util.Json_in in
  let int key = Option.get (Option.bind (J.member key j) J.to_int) in
  let bucket = function
    | Json.List [ i; n ] -> (Option.get (J.to_int i), Option.get (J.to_int n))
    | _ -> Alcotest.fail "malformed bucket"
  in
  let count = int "count" in
  {
    Hdr.sub_bits = int "sub_bits";
    count;
    sum = int "sum";
    min_v = (if count = 0 then max_int else int "min");
    max_v = (if count = 0 then min_int else int "max");
    buckets = List.map bucket (Option.get (Option.bind (J.member "buckets" j) J.to_list));
  }

let hdr_json_roundtrip =
  QCheck.Test.make ~name:"hdr snapshot json round-trips" ~count:200
    QCheck.(
      pair (int_range 0 1_000_000_000)
        (list_of_size Gen.(0 -- 59) (int_range 0 1_000_000_000)))
    (fun (x, rest) ->
      let xs = x :: rest in
      let h = Hdr.Local.create () in
      List.iter (Hdr.Local.observe h) xs;
      let s = Hdr.Local.snapshot h in
      hdr_of_json (Repro_util.Json_in.parse (Json.to_string (Hdr.to_json s))) = s)

(* ---------------- registry: shards, gauges, snapshots ---------------- *)

let sharded_counter_exact () =
  let reg = M.create () in
  let c = M.counter ~registry:reg ~labels:[ ("worker", "x") ] "repro_test_hits_total" in
  let h = M.histogram ~registry:reg "repro_test_lat_ns" in
  let body () =
    for i = 1 to 50_000 do
      M.incr c;
      if i <= 1_000 then M.observe h i
    done
  in
  let ds = Array.init 4 (fun _ -> Domain.spawn body) in
  Array.iter Domain.join ds;
  M.add c 7;
  let snap = M.snapshot ~registry:reg () in
  check (Alcotest.float 0.) "counter exact across 4 domains" 200_007.
    (M.total snap "repro_test_hits_total");
  let hs = M.hist_total snap "repro_test_lat_ns" in
  check Alcotest.int "histogram count exact" 4_000 hs.Hdr.count;
  check Alcotest.int "histogram sum exact" (4 * 500_500) hs.Hdr.sum;
  check Alcotest.int "histogram min" 1 hs.Hdr.min_v;
  check Alcotest.int "histogram max" 1_000 hs.Hdr.max_v

let gauge_last_write_wins () =
  let reg = M.create () in
  let g = M.gauge ~registry:reg "repro_test_depth" in
  M.set_gauge g 1.5;
  M.set_gauge g 2.5;
  check (Alcotest.float 0.) "last write" 2.5
    (M.total (M.snapshot ~registry:reg ()) "repro_test_depth")

let collector_retirement () =
  let reg = M.create () in
  let live = ref 41 in
  let col =
    M.add_collector ~registry:reg ~name:"t" (fun () ->
        [ M.c_sample "repro_test_col_total" (float_of_int !live) ])
  in
  incr live;
  check (Alcotest.float 0.) "collector polled" 42.
    (M.total (M.snapshot ~registry:reg ()) "repro_test_col_total");
  M.remove_collector ~registry:reg col;
  live := 1_000;
  (* final value was folded into the retired set at removal time *)
  check (Alcotest.float 0.) "retired total survives" 42.
    (M.total (M.snapshot ~registry:reg ()) "repro_test_col_total")

(* Snapshot merge is associative: integer-valued floats add exactly and
   the canonical key order is first-appearance on both sides. *)
let merge_associative_qcheck =
  let mk (ni, li, v) =
    M.c_sample
      ~labels:(if li = 0 then [] else [ ("w", string_of_int li) ])
      (Printf.sprintf "repro_t%d_total" ni)
      (float_of_int v)
  in
  let sample_gen = QCheck.(triple (int_range 0 2) (int_range 0 2) (int_range 0 1000)) in
  QCheck.Test.make ~name:"snapshot merge is associative" ~count:300
    QCheck.(triple (small_list sample_gen) (small_list sample_gen) (small_list sample_gen))
    (fun (a, b, c) ->
      let s l = { M.taken_ns = 0; elapsed_ns = 0; samples = List.map mk l } in
      M.merge (M.merge (s a) (s b)) (s c) = M.merge (s a) (M.merge (s b) (s c)))

let relabel_and_find () =
  let s =
    {
      M.taken_ns = 0;
      elapsed_ns = 0;
      samples =
        [
          M.c_sample ~labels:[ ("worker", "0") ] "repro_test_a_total" 3.;
          M.c_sample ~labels:[ ("pe", "9"); ("worker", "1") ] "repro_test_a_total" 4.;
        ];
    }
  in
  let r = M.relabel ("pe", "2") s in
  (* added on the first sample, overridden on the second *)
  check Alcotest.bool "added" true
    (Option.is_some (M.find ~labels:[ ("pe", "2"); ("worker", "0") ] r "repro_test_a_total"));
  check Alcotest.bool "overridden" true
    (Option.is_some (M.find ~labels:[ ("pe", "2"); ("worker", "1") ] r "repro_test_a_total"));
  check (Alcotest.float 0.) "total unchanged" 7. (M.total r "repro_test_a_total")

(* ---------------- the metrics document ---------------- *)

let golden_snapshot () =
  let h = Hdr.Local.create () in
  List.iter (Hdr.Local.observe h) [ 1; 2; 3 ];
  {
    M.taken_ns = 0;
    elapsed_ns = 0;
    samples =
      [
        M.c_sample ~help:"Requests handled." ~labels:[ ("worker", "0") ] "repro_req_total" 3.;
        M.g_sample ~help:"Queue depth." "repro_depth" 2.5;
        M.h_sample ~help:"Latency." "repro_lat_ns" (Hdr.Local.snapshot h);
      ];
  }

(* The --metrics document: schema, the run's meta, then one snapshot
   whose samples carry their labels, help, kind and value (histograms
   as sparse [index, count] buckets). *)
let document_golden () =
  let expected =
    String.concat ""
      [
        {|{"schema":"repro/metrics/v1","command":"exec",|};
        {|"snapshot":{"taken_ns":0,"elapsed_ns":0,"samples":[|};
        {|{"name":"repro_req_total","labels":{"worker":"0"},|};
        {|"help":"Requests handled.","kind":"counter","value":3},|};
        {|{"name":"repro_depth","labels":{},|};
        {|"help":"Queue depth.","kind":"gauge","value":2.5},|};
        {|{"name":"repro_lat_ns","labels":{},|};
        {|"help":"Latency.","kind":"histogram","value":|};
        {|{"sub_bits":5,"count":3,"sum":6,"min":1,"max":3,|};
        {|"buckets":[[1,1],[2,1],[3,1]]}}]}}|};
      ]
  in
  check Alcotest.string "metrics document" expected
    (Json.to_string ~indent:0
       (M.document ~meta:[ ("command", Json.Str "exec") ] (golden_snapshot ())))

(* ---------------- health detectors ---------------- *)

let hsnap ?(elapsed_ns = 10_000_000_000) kvs =
  {
    M.taken_ns = 0;
    elapsed_ns;
    samples = List.map (fun (n, v) -> M.c_sample n v) kvs;
  }

let verdict rule vs =
  match List.find_opt (fun (v : Health.verdict) -> v.rule = rule) vs with
  | Some v -> v
  | None -> Alcotest.failf "no verdict for %s" rule

let health_rule name ~trigger ~clear () =
  let fire = Health.evaluate (hsnap trigger) in
  check Alcotest.bool (name ^ " triggers") true (verdict name fire).Health.triggered;
  check Alcotest.int "strict exit code" 3 (Health.exit_code fire);
  let ok = Health.evaluate (hsnap clear) in
  check Alcotest.bool (name ^ " clears") false (verdict name ok).Health.triggered

let health_steal_storm =
  health_rule "steal-failure-storm"
    ~trigger:
      [
        ("repro_steal_attempts_total", 10_000.);
        ("repro_steals_total", 100.);
        ("repro_pool_parks_total", 1.);
      ]
    ~clear:
      [
        ("repro_steal_attempts_total", 10_000.);
        ("repro_steals_total", 1_000.);
        ("repro_pool_parks_total", 1.);
      ]

let health_storm_vs_famine () =
  (* same terrible failure ratio, but the workers are parking: famine,
     not a storm — the attempts/park guard keeps it quiet *)
  let vs =
    Health.evaluate
      (hsnap
         [
           ("repro_steal_attempts_total", 10_000.);
           ("repro_steals_total", 0.);
           ("repro_pool_parks_total", 100.);
         ])
  in
  check Alcotest.bool "parking famine is not a storm" false
    (verdict "steal-failure-storm" vs).Health.triggered

let health_fizzle =
  health_rule "spark-fizzle-ratio"
    ~trigger:
      [ ("repro_pool_sparks_created_total", 2_048.); ("repro_pool_sparks_fizzled_total", 2_000.) ]
    ~clear:
      [ ("repro_pool_sparks_created_total", 2_048.); ("repro_pool_sparks_fizzled_total", 1_024.) ]

let health_fizzle_below_min () =
  (* 100% fizzle on a tiny run is noise, not a verdict *)
  let vs =
    Health.evaluate
      (hsnap
         [
           ("repro_pool_sparks_created_total", 512.);
           ("repro_pool_sparks_fizzled_total", 512.);
         ])
  in
  check Alcotest.bool "below min_created" false
    (verdict "spark-fizzle-ratio" vs).Health.triggered

let health_backpressure =
  health_rule "ring-backpressure-stall"
    ~trigger:
      [ ("repro_ring_backpressure_waits_total", 1_024.); ("repro_wire_msgs_sent_total", 100.) ]
    ~clear:
      [ ("repro_ring_backpressure_waits_total", 1_024.); ("repro_wire_msgs_sent_total", 1_000.) ]

let health_gc =
  health_rule "gc-pause-budget"
    ~trigger:[ ("repro_gc_minor_collections", 3_000_000.) ] (* 300k/s over 10s *)
    ~clear:[ ("repro_gc_minor_collections", 1_000_000.) ]

let health_gc_short_run () =
  (* the same rate over a run shorter than gc_min_elapsed_s is ignored *)
  let vs =
    Health.evaluate
      (hsnap ~elapsed_ns:10_000_000 [ ("repro_gc_minor_collections", 10_000. ) ])
  in
  check Alcotest.bool "short run ignored" false
    (verdict "gc-pause-budget" vs).Health.triggered

let health_rule_names () =
  check
    Alcotest.(list string)
    "one verdict per rule, in order"
    [
      "steal-failure-storm"; "spark-fizzle-ratio"; "ring-backpressure-stall";
      "gc-pause-budget";
    ]
    (List.map (fun (v : Health.verdict) -> v.rule) (Health.evaluate (hsnap [])))

let health_clean_exit () =
  check Alcotest.int "clean snapshot exits 0" 0
    (Health.exit_code (Health.evaluate (hsnap [])))

(* ---------------- integration: pool and dist ---------------- *)

let pool_counters_retire () =
  let before = M.total (M.snapshot ()) "repro_pool_sparks_created_total" in
  Repro_exec.Pool.with_pool ~cores:2 (fun () ->
      let fs = List.init 64 (fun i -> Repro_exec.Future.spark (fun () -> i * i)) in
      let total = List.fold_left (fun acc f -> acc + Repro_exec.Future.force f) 0 fs in
      check Alcotest.int "work is correct" 85_344 total);
  let snap = M.snapshot () in
  (* the pool is gone, but its retired counters survive in the default
     registry *)
  check Alcotest.bool "sparks_created retired" true
    (M.total snap "repro_pool_sparks_created_total" >= before +. 64.);
  check Alcotest.bool "busy time accounted" true
    (List.exists (fun s -> s.M.s_name = "repro_pool_busy_ns_total") snap.M.samples);
  check Alcotest.bool "forces counted" true (M.total snap "repro_future_forces_total" >= 64.)

let dist_piggyback_2pe () =
  let module W = Repro_dist.Workload.Sumeuler in
  let o = Repro_dist.Farm.run ~procs:2 ~size:W.quick_size (module W) in
  check Alcotest.int "checksum still right" (W.reference ~size:W.quick_size)
    o.Repro_dist.Farm.result;
  let m = o.Repro_dist.Farm.merged_metrics in
  let pes =
    List.sort_uniq compare
      (List.filter_map (fun s -> List.assoc_opt "pe" s.M.s_labels) m.M.samples)
  in
  check (Alcotest.list Alcotest.string) "every PE and the coordinator contributed"
    [ "0"; "1"; "coord" ] pes;
  check Alcotest.bool "farm-wide wire traffic" true
    (M.total m "repro_wire_msgs_sent_total" > 0.);
  (* per-PE series survive the relabel + merge *)
  List.iter
    (fun pe ->
      check Alcotest.bool
        (Printf.sprintf "pe=%s kept its own wire counter" pe)
        true
        (List.exists
           (fun s ->
             s.M.s_name = "repro_wire_msgs_sent_total"
             && List.assoc_opt "pe" s.M.s_labels = Some pe)
           m.M.samples))
    [ "0"; "1" ]

(* ---------------- one measurement record, both backends ---------------- *)

module Measure = Repro_metrics.Measure

(* The same sweep on either backend: one schema id, the backend field,
   base speedup 1, the sequential checksum on every row, one per-worker
   row per process, and GC deltas that never go backwards. *)
let measure_sweep (backend : Measure.backend) () =
  let module W = Repro_exec.Workload.Sumeuler in
  let size = W.quick_size in
  let run =
    match backend with
    | Domains -> fun cores -> Repro_exec.Workload.sample (module W) ~size ~cores
    | Processes ->
        fun procs ->
          Repro_dist.Farm.sample ~transport:Sock ~procs ~size
            (module Repro_dist.Workload.Sumeuler)
  in
  let ms = Measure.sweep ~repeats:1 ~ladder:[ 1; 2 ] run in
  check Alcotest.int "one row per rung" 2 (List.length ms);
  check (Alcotest.float 1e-9) "base speedup" 1.0 (List.hd ms).speedup;
  List.iter
    (fun (m : Measure.measurement) ->
      check Alcotest.string "backend" (Measure.backend_name backend)
        (Measure.backend_name m.backend);
      check Alcotest.int "sequential checksum" (W.reference ~size) m.result;
      check Alcotest.bool "positive time" true (m.mean_ns > 0.);
      check Alcotest.(option string) "transport"
        (if backend = Processes then Some "socketpair" else None)
        m.transport;
      if backend = Processes then
        check Alcotest.int "per-worker rows" m.workers
          (Array.length m.per_worker);
      check Alcotest.bool "GC deltas >= 0" true
        (m.gc.minor_collections >= 0
        && m.gc.major_collections >= 0
        && m.gc.minor_words >= 0.
        && m.gc.promoted_words >= 0.))
    ms;
  let module J = Repro_util.Json_in in
  let doc = J.parse (Json.to_string (Measure.json_document ms)) in
  let str key j = Option.bind (J.member key j) J.to_string in
  check Alcotest.(option string) "schema id" (Some "repro/measure/v1")
    (str "schema" doc);
  let rows = Option.get (Option.bind (J.member "measurements" doc) J.to_list) in
  check Alcotest.int "one JSON row per rung" 2 (List.length rows);
  List.iter
    (fun row ->
      check Alcotest.(option string) "backend field"
        (Some (Measure.backend_name backend))
        (str "backend" row))
    rows

let suite =
  ( "metrics",
    [
      test_case "hdr bucket geometry" `Quick hdr_geometry;
      QCheck_alcotest.to_alcotest hdr_quantile_qcheck;
      QCheck_alcotest.to_alcotest hdr_mean_exact;
      QCheck_alcotest.to_alcotest hdr_merge_qcheck;
      QCheck_alcotest.to_alcotest hdr_json_roundtrip;
      test_case "sharded counter exact across domains" `Quick sharded_counter_exact;
      test_case "gauge last write wins" `Quick gauge_last_write_wins;
      test_case "collector retirement keeps totals" `Quick collector_retirement;
      QCheck_alcotest.to_alcotest merge_associative_qcheck;
      test_case "relabel and find" `Quick relabel_and_find;
      test_case "metrics document golden" `Quick document_golden;
      test_case "health: steal storm" `Quick health_steal_storm;
      test_case "health: storm vs famine" `Quick health_storm_vs_famine;
      test_case "health: spark fizzle" `Quick health_fizzle;
      test_case "health: fizzle below min" `Quick health_fizzle_below_min;
      test_case "health: ring backpressure" `Quick health_backpressure;
      test_case "health: gc budget" `Quick health_gc;
      test_case "health: gc short run" `Quick health_gc_short_run;
      test_case "health: rule names in order" `Quick health_rule_names;
      test_case "health: clean exit code" `Quick health_clean_exit;
      test_case "pool counters retire into registry" `Quick pool_counters_retire;
      test_case "dist 2-PE piggyback merge" `Quick dist_piggyback_2pe;
      test_case "measure sweep on domains" `Quick (measure_sweep Domains);
      test_case "measure sweep on processes" `Quick (measure_sweep Processes);
    ] )
