(** The benchmark's four workloads: the same five kernels on the
    simulator, on a 2-domain pool and on 2 worker processes over each
    transport.  A workload's [setup] computes the sequential references
    and creates whatever outlives a job; a job runs one kernel through
    the backend's public entry point and returns the check that
    verifies its result.

    Every job runs the same code timed or traced.  Traced, each call
    into a layer becomes a child span of the job and its returned
    counters (pool events, farm outcome, simulator report) are added
    to the per-layer tally. *)

module J = Repro_util.Json_out
module Pool = Repro_exec.Pool
module Farm = Repro_dist.Farm
module Metrics = Repro_metrics.Metrics
module Rts = Repro_parrts.Rts
module Report = Repro_parrts.Report
module Versions = Repro_core.Versions
module Machine = Repro_machine.Machine
module K = Repro_workloads

(** The five kernels, in canonical order ([Repro_exec.Workload.names]). *)
let kernels = Repro_exec.Workload.names

(** Per-layer sums over the traced jobs, keyed by layer counter. *)
type tally = (string, float) Hashtbl.t

let add (t : tally) key v =
  Hashtbl.replace t key (v +. Option.value ~default:0.0 (Hashtbl.find_opt t key))

let add_max (t : tally) key v =
  Hashtbl.replace t key
    (Float.max v (Option.value ~default:0.0 (Hashtbl.find_opt t key)))

type traced = { spans : Spans.t; tally : tally }

type instance = {
  job : traced option -> string -> unit -> unit;
      (** [job tr kernel] runs one job and returns its check, which
          raises [Failure] on a wrong result *)
  teardown : unit -> unit;
}

type t = {
  name : string;
  cores : int;  (** cores a job keeps busy: what it is calibrated against *)
  setup : seed:int -> smoke:bool -> exact:(string, int) Hashtbl.t -> instance;
      (** [exact] collects deterministic counts from each kernel's
          first job; it outlives repeated set-ups, so later set-ups are
          checked against the first *)
}

(* One call into a layer: the clock is read around [f] only; [report]
   runs after the span closes and returns the span's args (adding to
   the tally as it goes).  The span's duration is tallied under
   ["span." ^ name]. *)
let call tr name f report =
  let t0 = Timing.now_ns () in
  let r = f () in
  let t1 = Timing.now_ns () in
  Option.iter
    (fun tr ->
      add tr.tally ("span." ^ name) (float_of_int (t1 - t0));
      Spans.add tr.spans ~name ~start_ns:t0 ~stop_ns:t1 (report tr r))
    tr;
  r

let check ~what ~want got () =
  if got <> want then
    failwith (Printf.sprintf "%s: checksum %d, reference %d" what got want)

let first_seen exact key v =
  if not (Hashtbl.mem exact key) then Hashtbl.replace exact key v

let reference_of refs kernel =
  match List.assoc_opt kernel refs with
  | Some r -> r
  | None -> invalid_arg ("unknown kernel " ^ kernel)

let float_bits = Repro_dist.Workload.float_bits

(* ---------------- sim ---------------- *)

type sim_kernel = {
  gph : unit -> int;
  eden : unit -> int;
  reference : unit -> int;
}

(* Paper sizes: sumEuler 15000, parfib 30 (threshold 20; Eden farms
   the call tree at depth 4), matmul 500 (Eden: Cannon on a 2x2
   torus), mandelbrot 300x300, apsp 200 nodes.  Matmul runs the
   synthetic payload, which charges the multiply's virtual cost without
   doing it and returns 0.0, so its check is the virtual time; the seed
   picks the apsp graph. *)
let sim_kernel ~smoke ~seed = function
  | "sumeuler" ->
      let n = if smoke then 1500 else 15000 in
      {
        gph = (fun () -> K.Sumeuler.gph ~n ());
        eden = (fun () -> K.Sumeuler.eden ~n ());
        reference = (fun () -> K.Euler.sum_euler_ref n);
      }
  | "parfib" ->
      let n, threshold, depth = if smoke then (20, 12, 3) else (30, 20, 4) in
      {
        gph = (fun () -> K.Parfib.gph ~n ~threshold ());
        eden = (fun () -> K.Parfib.eden ~n ~depth ());
        reference = (fun () -> K.Parfib.reference n);
      }
  | "matmul" ->
      let n = if smoke then 100 else 500 in
      {
        gph = (fun () -> float_bits (K.Matmul.gph ~n ()));
        eden = (fun () -> float_bits (K.Matmul.eden_cannon ~n ~q:2 ()));
        reference = (fun () -> float_bits 0.0);
      }
  | "mandelbrot" ->
      let d = if smoke then 60 else 300 in
      {
        gph = (fun () -> K.Mandelbrot.gph ~width:d ~height:d ());
        eden = (fun () -> K.Mandelbrot.eden_mw ~width:d ~height:d ());
        reference = (fun () -> K.Mandelbrot.reference ~width:d ~height:d ());
      }
  | "apsp" ->
      let n = if smoke then 40 else 200 in
      {
        gph = (fun () -> float_bits (K.Apsp.gph ~seed ~n ()));
        eden = (fun () -> float_bits (K.Apsp.eden_ring ~seed ~n ()));
        reference =
          (fun () ->
            float_bits (K.Apsp.checksum (K.Apsp.floyd_warshall (K.Apsp.graph ~seed n))));
      }
  | k -> invalid_arg ("unknown kernel " ^ k)

let report_args (r : Report.t) =
  [
    ("elapsed_ns", J.Int r.elapsed_ns);
    ("events", J.Int (Repro_trace.Eventlog.length r.eventlog));
    ("sparks_created", J.Int r.sparks.created);
    ("dup_work_entries", J.Int r.dup_work_entries);
    ("gc_minors", J.Int r.gc.minors);
    ("messages", J.Int r.messages.sent);
  ]

let sim =
  let gph = Versions.with_eager (Versions.gph_steal ~machine:Machine.intel8 ~ncaps:8 ()) in
  let eden = Versions.eden ~machine:Machine.intel8 ~npes:8 () in
  let setup ~seed ~smoke ~exact =
    let ks = List.map (fun k -> (k, sim_kernel ~smoke ~seed k)) kernels in
    let refs = List.map (fun (k, sk) -> (k, sk.reference ())) ks in
    let job tr kernel =
      let sk = List.assoc kernel ks and want = reference_of refs kernel in
      let run label (v : Versions.version) f =
        let got, (report : Report.t) =
          call tr ("sim.Rts.run." ^ label)
            (fun () -> Rts.run v.config f)
            (fun tr (_, r) ->
              let t = tr.tally in
              add t "sim.events" (float_of_int (Repro_trace.Eventlog.length r.eventlog));
              add t "sim.sparks" (float_of_int r.sparks.created);
              add t "sim.dup_work_entries" (float_of_int r.dup_work_entries);
              add t "sim.gc_minors" (float_of_int r.gc.minors);
              add t "sim.messages" (float_of_int r.messages.sent);
              report_args r)
        in
        (label, got, report.elapsed_ns)
      in
      let results = [ run "gph" gph sk.gph; run "eden" eden sk.eden ] in
      fun () ->
        List.iter
          (fun (label, got, elapsed_ns) ->
            let key = Printf.sprintf "sim.virtual_ns.%s.%s" kernel label in
            check ~what:(kernel ^ "/" ^ label) ~want got ();
            first_seen exact key elapsed_ns;
            let first = Hashtbl.find exact key in
            if elapsed_ns <> first then
              failwith
                (Printf.sprintf "%s/%s: virtual time %d ns, first pass %d ns"
                   kernel label elapsed_ns first))
          results
    in
    { job; teardown = ignore }
  in
  { name = "sim"; cores = 1; setup }

(* ---------------- domains ---------------- *)

let exec_module kernel =
  match Repro_exec.Workload.find kernel with
  | Some w -> w
  | None -> invalid_arg ("unknown kernel " ^ kernel)

let busy_ns () =
  Metrics.total (Metrics.snapshot ()) "repro_pool_busy_ns_total"

let domains =
  let setup ~seed:_ ~smoke ~exact =
    let size (module W : Repro_exec.Workload.S) =
      if smoke then W.quick_size else W.default_size
    in
    let refs =
      List.map
        (fun k ->
          let (module W) = exec_module k in
          (k, W.reference ~size:(size (module W))))
        kernels
    in
    let pool = Pool.create ~cores:2 () in
    let job tr kernel =
      let (module W) = exec_module kernel in
      let size = size (module W) in
      (* counters are read when traced, and on a kernel's first job for
         its spark count; a timed job reads none *)
      let before =
        if tr = None && Hashtbl.mem exact ("exec.sparks_created." ^ kernel) then None
        else Some (Pool.events pool, busy_ns ())
      in
      let got =
        call tr "exec.Pool.run"
          (fun () -> Pool.run pool (fun () -> W.run ~size ()))
          (fun tr _ ->
            let e0, busy0 = Option.get before in
            let e1 = Pool.events pool in
            let d f = float_of_int (f e1 - f e0) in
            let t = tr.tally in
            add t "exec.sparks_created" (d (fun e -> e.Pool.sparks_created));
            add t "exec.sparks_run" (d (fun e -> e.Pool.sparks_run));
            add t "exec.steal_attempts" (d (fun e -> e.Pool.steal_attempts));
            add t "exec.steals" (d (fun e -> e.Pool.steals));
            add t "exec.parks" (d (fun e -> e.Pool.parks));
            add t "exec.busy_ns" (busy_ns () -. busy0);
            [
              ("sparks_created", J.Int (e1.sparks_created - e0.sparks_created));
              ("sparks_run", J.Int (e1.sparks_run - e0.sparks_run));
              ("steals", J.Int (e1.steals - e0.steals));
              ("parks", J.Int (e1.parks - e0.parks));
            ])
      in
      Option.iter
        (fun (e0, _) ->
          first_seen exact ("exec.sparks_created." ^ kernel)
            ((Pool.events pool).sparks_created - e0.Pool.sparks_created))
        before;
      check ~what:kernel ~want:(reference_of refs kernel) got
    in
    { job; teardown = (fun () -> Pool.shutdown pool) }
  in
  { name = "domains"; cores = 2; setup }

(* ---------------- procs-sock ---------------- *)

(* There is no procs-shm workload: over the shm transport a farm run
   occasionally hangs for good.  [Tatomic.Fence.full] is an
   [Atomic.exchange], which OCaml 5.1 performs as a plain load and
   store while a process runs a single domain, as every PE and this
   coordinator do; so the doorbell handshake has no StoreLoad fence
   and a result can sit in a ring while its consumer sleeps. *)

let dist_module kernel =
  match Repro_dist.Workload.find kernel with
  | Some w -> w
  | None -> invalid_arg ("unknown kernel " ^ kernel)

let pe_sum (o : Farm.outcome) f =
  Array.fold_left (fun acc (r : Farm.pe_report) -> acc + f r.stats) 0 o.reports

let pe_sumf (o : Farm.outcome) f =
  Array.fold_left (fun acc (r : Farm.pe_report) -> acc +. f r.stats) 0.0 o.reports

(* Largest major heap of any PE, from the merged farm-wide snapshot. *)
let pe_heap_mb_max (o : Farm.outcome) =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      match s.s_value with
      | Gauge words
        when s.s_name = "repro_gc_heap_words"
             && List.assoc_opt "pe" s.s_labels <> Some "coord" ->
          Float.max acc (words *. 8.0 /. 1048576.0)
      | _ -> acc)
    0.0 o.merged_metrics.samples

let tally_outcome tr (o : Farm.outcome) =
  let t = tr.tally in
  let i name v = add t name (float_of_int v) in
  i "dist.spawn_ns" o.spawn_ns;
  i "dist.work_ns" o.work_ns;
  i "dist.pe_exec_ns" (pe_sum o (fun s -> s.exec_ns));
  i "dist.procs_work_ns" (o.procs * o.work_ns);
  i "dist.msgs" (pe_sum o (fun s -> s.msgs_sent + s.msgs_recv));
  i "dist.packets" (pe_sum o (fun s -> s.packets_sent + s.packets_recv));
  i "dist.bytes" (pe_sum o (fun s -> s.bytes_sent + s.bytes_recv));
  i "dist.payload_bytes"
    (pe_sum o (fun s -> s.payload_bytes_sent + s.payload_bytes_recv));
  i "dist.pack_ns" (o.coord_pack_ns + pe_sum o (fun s -> s.pack_ns));
  i "dist.unpack_ns" (o.coord_unpack_ns + pe_sum o (fun s -> s.unpack_ns));
  i "dist.fishes" o.fishes;
  i "dist.no_works" o.no_works;
  i "gc.pe_minor_collections" (pe_sum o (fun s -> s.gc_minor_collections));
  i "gc.pe_major_collections" (pe_sum o (fun s -> s.gc_major_collections));
  add t "gc.pe_minor_words" (pe_sumf o (fun s -> s.gc_minor_words));
  add t "gc.pe_promoted_words" (pe_sumf o (fun s -> s.gc_promoted_words));
  add_max t "mem.pe_heap_mb_max" (pe_heap_mb_max o);
  [
    ("procs", J.Int o.procs);
    ("rounds", J.Int o.rounds);
    ("tasks", J.Int o.tasks);
    ("fishes", J.Int o.fishes);
    ("no_works", J.Int o.no_works);
    ("spawn_ns", J.Int o.spawn_ns);
    ("work_ns", J.Int o.work_ns);
  ]

let procs_sock =
  let setup ~seed:_ ~smoke ~exact =
    let size (module D : Repro_dist.Workload.S) =
      if smoke then D.quick_size else D.default_size
    in
    let refs =
      List.map
        (fun k ->
          let (module D) = dist_module k in
          (k, D.reference ~size:(size (module D))))
        kernels
    in
    let job tr kernel =
      let (module D) = dist_module kernel in
      let size = size (module D) in
      let o =
        call tr "dist.Farm.run"
          (fun () -> Farm.run ~transport:Farm.Sock ~procs:2 ~size (module D))
          tally_outcome
      in
      first_seen exact ("dist.tasks." ^ kernel) o.tasks;
      check ~what:kernel ~want:(reference_of refs kernel) o.result
    in
    { job; teardown = ignore }
  in
  { name = "procs-sock"; cores = 2; setup }

let all = [ sim; domains; procs_sock ]

let find name = List.find_opt (fun w -> w.name = name) all
