(** The five benchmarks, each defined once for both real backends.

    Each workload is the same computation the simulator runs
    ([lib/workloads]) but with {e real} work: no virtual cost charging,
    values computed by the actual kernels and checked against the
    sequential references.  A module states its name, sizes, inputs,
    reference and leaf kernel once and holds both decompositions side
    by side:

    - [run] is the shared-heap form (GpH): sparked closures over one
      heap on a {!Pool}, through {!Strategies}.
    - [start]/[execute]/[finish] is the private-heap form (Eden), run
      by [Repro_dist.Farm] in one round.  It obeys Eden's heap-boundary
      rule: a task is {e data} (a chunk descriptor, a block of rows),
      never a closure over shared state, and a result is a
      fully-evaluated value shipped back whole.  APSP {e pins} one task
      per PE and pipelines its pivot rows around the PEs' ring as
      Eden's ring does ({!relay}): a task relays its rows in increasing
      order, row [k] only after receiving every pivot before [k], and
      a PE never forwards a row back to the row's origin, so no cycle
      of blocked senders forms, even on edges that buffer less than a
      row.

    APSP's two forms are one program, [walk]: a block of rows per
    worker walks the pivots in order.  They differ only in where a
    block's rows live (a PE's heap, or the shared matrix) and in the
    relay (the ring, or [heap_relay]'s pivot buffers and flags).  On a
    pool the caller claims block 0 and the helpers steal the others,
    and a block waiting for a pivot never runs another pool task on
    its stack, so a worker holds at most one block and, with one block
    per worker, every block has a worker of its own: no block waits
    under a frame that waits for it, as a forcer that helps can.  This
    holds while the pool runs nothing else that keeps a worker, such
    as a second apsp.

    Results are represented as a deterministic [int] checksum so one
    signature covers integer- and float-valued benchmarks.  Both forms
    perform their floating-point reductions in exactly the reference
    order, so float checksums are equal bit-for-bit, not approximately,
    on any number of domains or PEs. *)

module Euler = Repro_workloads.Euler
module Matrix = Repro_workloads.Matrix
module Mandelbrot = Repro_workloads.Mandelbrot
module Apsp = Repro_workloads.Apsp
module S = Strategies
module A = Repro_shim.Tatomic.Real

type relay = { send : int -> float array -> unit; recv : unit -> int * float array }

module type S = sig
  val name : string
  val size_doc : string
  val default_size : int
  val quick_size : int
  val reference : size:int -> int
  val run : size:int -> unit -> int

  type task
  type result
  type state

  val start : size:int -> procs:int -> state * task array * bool
  val finish : state -> result array -> int
  val execute : size:int -> relay -> task -> result
  val result_blob : ((result -> float array) * (float array -> result)) option
end

let float_bits f = Int64.to_int (Int64.bits_of_float f)

(* Contiguous block [c] of [0..size-1] split into [chunks] pieces. *)
let block ~size ~chunks c =
  let lo = c * size / chunks and hi = ((c + 1) * size / chunks) - 1 in
  (lo, hi)

(* ---------------- sumEuler ---------------- *)

module Sumeuler : S = struct
  let name = "sumeuler"
  let size_doc = "sum of Euler's totient over [1..size]"
  let default_size = 300_000
  let quick_size = 2_000
  let reference ~size = Euler.sum_euler_ref size

  (* Contiguous blocks of [1..size], one per 50 values and at most 512
     (the pool makes at least 4 per core).  phi's cost grows with k, so
     the last block costs most; with 512 blocks stealing still
     balances, and thieves start at that far end. *)
  let blocks size = min 512 (size / 50)

  let run ~size () =
    let chunks = max (S.default_chunks size) (blocks size) in
    S.par_range ~chunks 1 size Euler.sum_phi ~combine:( + ) ~init:0

  type task = int * int  (** inclusive [k] range *)

  type result = int
  type state = unit

  let start ~size ~procs:_ =
    let chunks = max 1 (blocks size) in
    let tasks =
      Array.init chunks (fun c ->
          let lo, hi = block ~size ~chunks c in
          (lo + 1, hi + 1))
    in
    ((), tasks, false)

  let finish () results = Array.fold_left ( + ) 0 results
  let execute ~size:_ _ (lo, hi) = Euler.sum_phi lo hi

  (* one int per task: the marshalled form is already minimal *)
  let result_blob = None
end

(* ---------------- parfib ---------------- *)

(* The leaf of both forms: the naive exponential recursion, not the
   simulator's memoised [Repro_workloads.Parfib.nfib]. *)
let rec nfib n = if n < 2 then 1 else nfib (n - 1) + nfib (n - 2) + 1

module Parfib : S = struct
  let name = "parfib"
  let size_doc = "nfib size (naive call count), call tree split at a threshold"
  let default_size = 34
  let quick_size = 24
  let reference ~size = Repro_workloads.Parfib.reference size

  (* Threshold [size - 10] yields a few hundred sparks or tasks
     regardless of [size]. *)
  let threshold size = max 2 (size - 10)

  (* The classic GpH stress shape: spark the left branch of every call
     above the threshold. *)
  let rec pfib n t =
    if n < t || n < 2 then nfib n
    else
      let a, b = S.par (fun () -> pfib (n - 1) t) (fun () -> pfib (n - 2) t) in
      a + b + 1

  let run ~size () = pfib size (threshold size)

  type task = int  (** one sub-tree: compute nfib of this argument *)

  type result = int

  type state = int  (** internal-node contribution of the unfolded prefix *)

  (* Unfold the call tree down to the threshold, exactly as [run]
     sparks it: every internal node contributes [+1], the leaves
     become remote tasks. *)
  let start ~size ~procs:_ =
    let t = threshold size in
    let leaves = ref [] and internal = ref 0 in
    let rec split n =
      if n < t || n < 2 then leaves := n :: !leaves
      else begin
        incr internal;
        split (n - 1);
        split (n - 2)
      end
    in
    split size;
    (!internal, Array.of_list (List.rev !leaves), false)

  let finish internal results = internal + Array.fold_left ( + ) 0 results
  let execute ~size:_ _ n = nfib n
  let result_blob = None
end

(* The bulk payload of the suite, a block of float rows (matmul's
   product rows, apsp's distance rows), flattened with a [rows; cols]
   shape prefix.  Both are far below 2^53, so the float round-trip is
   exact, as is the row data itself (raw IEEE bits either way). *)
let rows_blob =
  let enc (rows : float array array) =
    let nr = Array.length rows in
    let nc = if nr = 0 then 0 else Array.length rows.(0) in
    let out = Array.make (2 + (nr * nc)) 0.0 in
    out.(0) <- float_of_int nr;
    out.(1) <- float_of_int nc;
    Array.iteri (fun i row -> Array.blit row 0 out (2 + (i * nc)) nc) rows;
    out
  in
  let dec (flat : float array) =
    let nr = int_of_float flat.(0) and nc = int_of_float flat.(1) in
    Array.init nr (fun i -> Array.sub flat (2 + (i * nc)) nc)
  in
  Some (enc, dec)

(* ---------------- matmul ---------------- *)

module Matmul : S = struct
  let name = "matmul"
  let size_doc = "size x size dense float multiply"
  let default_size = 384
  let quick_size = 64

  (* [a] and [b] are [Matrix.random] of these seeds.  Only [reference]
     draws them whole: the parallel forms draw [b] as its transpose
     [bt], by columns, and each piece of work only its own rows of [a],
     with the whole matrices' bits. *)
  let a_seed = 11 and b_seed = 23
  let inputs size = (Matrix.random ~seed:a_seed size, Matrix.random ~seed:b_seed size)

  let reference ~size =
    let a, b = inputs size in
    float_bits (Matrix.checksum (Matrix.mul_ref a b))

  (* Rows [lo..] of the product into [c], rows [lo..] of [a] drawn into
     [a] first. *)
  let product ~into:c a bt ~lo =
    Matrix.fill_rows a ~seed:a_seed ~lo;
    Matrix.mul_rows ~into:c a bt

  (* The caller allocates [a], [bt] and the product [c], and two phases
     of sparks fill disjoint rows of them: the first draws [bt] a block
     of columns at a time, the second a block of [a]'s rows and their
     product rows.  Sparks that returned fresh rows instead, or a sum
     taken block by block as the caller forced them, left OCaml 5.1's
     major GC far behind: the heap peaked 25-70% higher (EXPERIMENTS.md,
     "Matmul drew its inputs on one core"). *)
  let run ~size () =
    let chunks = S.default_chunks size in
    let a = Matrix.create size size and bt = Matrix.create size size in
    let c = Matrix.create size size in
    let rows m lo hi = Array.sub m lo (hi - lo + 1) in
    (* spark-purity (baselined): each range fills its own rows lo..hi
       of [bt] with a pure function of [lo] and [hi]: duplicate
       evaluation stores identical values (idempotent). *)
    S.par_range ~chunks 0 (size - 1)
      (fun lo hi -> Matrix.fill_cols (rows bt lo hi) ~seed:b_seed ~lo)
      ~combine:(fun () () -> ())
      ~init:();
    (* spark-purity (baselined): each range fills its own rows lo..hi
       of [a] and [c], with values that depend on [bt], [lo] and [hi]
       only (idempotent). *)
    S.par_range ~chunks 0 (size - 1)
      (fun lo hi -> product ~into:(rows c lo hi) (rows a lo hi) bt ~lo)
      ~combine:(fun () () -> ())
      ~init:();
    float_bits (Matrix.checksum c)

  type task = int * int  (** inclusive row range of the product *)

  type result = float array array  (** the computed rows *)

  type state = unit

  (* PEs draw the (deterministic) inputs locally instead of receiving
     them — Eden replicates closed inputs the same way; only the
     computed rows travel back.  [bt] is cached per size, so a PE draws
     it once per process; a task draws only its own rows of [a]. *)
  let pe_bt : (int, Matrix.mat) Hashtbl.t = Hashtbl.create 4

  let chunk_count ~size ~procs = max 1 (min size (4 * procs))

  let start ~size ~procs =
    let chunks = chunk_count ~size ~procs in
    ((), Array.init chunks (block ~size ~chunks), false)

  let finish () results =
    float_bits (Array.fold_left Matrix.checksum_from 0.0 results)

  let execute ~size _ (lo, hi) =
    let bt =
      match Hashtbl.find_opt pe_bt size with
      | Some bt -> bt
      | None ->
          let bt = Matrix.create size size in
          Matrix.fill_cols bt ~seed:b_seed ~lo:0;
          Hashtbl.replace pe_bt size bt;
          bt
    in
    let c = Matrix.create (hi - lo + 1) size in
    product ~into:c (Matrix.create (hi - lo + 1) size) bt ~lo;
    c

  let result_blob = rows_blob
end

(* ---------------- mandelbrot ---------------- *)

module Mandelbrot_w : S = struct
  let name = "mandelbrot"
  let size_doc = "size x size rendering of the default view"
  let default_size = 500
  let quick_size = 64
  let reference ~size = Mandelbrot.reference ~width:size ~height:size ()

  let row_total ~size y =
    let _, total =
      Mandelbrot.compute_row ~view:Mandelbrot.default_view ~width:size
        ~height:size y
    in
    total

  (* Irregular row costs: many fine chunks keep the load balanced,
     dynamically by stealing on a pool, by demand on PEs. *)
  let chunk_count size = max 1 (min 128 size)

  let run ~size () =
    let chunks = max (S.default_chunks size) (chunk_count size) in
    S.par_range ~chunks 0 (size - 1)
      (fun lo hi ->
        let s = ref 0 in
        for y = lo to hi do
          s := !s + row_total ~size y
        done;
        !s)
      ~combine:( + ) ~init:0

  type task = int * int  (** inclusive row range *)

  type result = int array  (** per-row iteration totals for the range *)

  type state = unit

  let start ~size ~procs:_ =
    let chunks = chunk_count size in
    ((), Array.init chunks (block ~size ~chunks), false)

  let finish () results =
    Array.fold_left (fun acc rows -> Array.fold_left ( + ) acc rows) 0 results

  let execute ~size _ (lo, hi) =
    Array.init (max 0 (hi - lo + 1)) (fun i -> row_total ~size (lo + i))

  (* Row totals are iteration counts (far below 2^53): exact as
     floats, so the rendered rows ride the zero-copy plane. *)
  let result_blob =
    let enc (rows : result) = Array.map float_of_int rows in
    let dec (flat : float array) : result = Array.map int_of_float flat in
    Some (enc, dec)
end

(* ---------------- apsp ---------------- *)

(* Relaxes rows [a..b] against [pivot], row [k] at entry of step [k],
   in place, where row [i] is [d.(i - off)]: [Apsp.relax], the
   simulator's kernel, whose bits are [Apsp.floyd_warshall]'s. *)
let pivot_step d ~off pivot k a b =
  for i = a to b do
    Apsp.relax d.(i - off) ~k pivot
  done

(* One block's walk: rows [lo..hi] (row [i] at [d.(i - off)], none if
   [hi < lo]) meet the pivots in order.  The block relays each of its
   rows as soon as the row is final, that is once it has met every
   earlier pivot, and receives every other pivot through [relay].
   Then it relaxes its rows against the pivot, row [k+1] first when it
   owns it, so the next pivot goes out before the rest of the block is
   done.  A block relays row [k] only after it has received every
   pivot before [k]; row [k]'s own update at pivot [k] is the
   identity. *)
let walk ~size relay d ~off (lo, hi) =
  let mine k = lo <= k && k <= hi in
  if mine 0 then relay.send 0 d.(0 - off);
  for k = 0 to size - 1 do
    let pivot =
      if mine k then d.(k - off)
      else
        match relay.recv () with
        | k', row when k' = k && Array.length row = size -> row
        | k', row ->
            failwith
              (Printf.sprintf
                 "apsp: block %d..%d expected pivot %d of %d nodes, got \
                  pivot %d of %d"
                 lo hi k size k' (Array.length row))
    in
    if mine (k + 1) then begin
      Apsp.relax d.(k + 1 - off) ~k pivot;
      relay.send (k + 1) d.(k + 1 - off);
      pivot_step d ~off pivot k lo k;
      pivot_step d ~off pivot k (k + 2) hi
    end
    else pivot_step d ~off pivot k lo hi
  done

let rec await flag idle = if not (A.get flag) then await flag (Pool.backoff idle)

(* The shared heap's relay for block [lo..hi]: [send k row] copies row
   [k] into [pivots.(k)], then sets [ready.(k)]; [recv] waits for the
   next pivot outside the block, spinning and sleeping but never
   helping, and returns its buffer, which nobody writes again. *)
let heap_relay pivots ready (lo, hi) =
  let next = ref 0 in
  let send k row =
    Array.blit row 0 pivots.(k) 0 (Array.length row);
    A.set ready.(k) true
  in
  let recv () =
    if !next = lo then next := hi + 1;
    let k = !next in
    await ready.(k) 0;
    next := k + 1;
    (k, pivots.(k))
  in
  { send; recv }

module Apsp_w : S = struct
  let name = "apsp"
  let size_doc = "all-pairs shortest paths on a size-node digraph"
  let default_size = 256
  let quick_size = 48

  let reference ~size =
    float_bits (Apsp.checksum (Apsp.floyd_warshall (Apsp.graph size)))

  type task = int * int  (** a block, rows [lo..hi]; empty if [hi < lo] *)

  type result = float array array  (** the block, after every pivot *)

  type state = unit

  let start ~size ~procs = ((), Array.init procs (block ~size ~chunks:procs), true)
  let finish () blocks = float_bits (Apsp.checksum (Array.concat (Array.to_list blocks)))

  let execute ~size relay ((lo, hi) as rows) =
    let d = Apsp.graph_rows size ~lo ~hi in
    walk ~size relay d ~off:lo rows;
    d

  (* One block per pool worker (one outside a pool) on one shared
     matrix, whose rows and pivot buffers the caller allocates before
     any block starts; the module header says why it cannot deadlock. *)
  let run ~size () =
    let (), blocks, _ = start ~size ~procs:(S.available_cores ()) in
    let d = Apsp.graph size and p = Array.length blocks in
    let pivots = Array.make_matrix size size 0.0
    and ready = Array.init size (fun _ -> A.make false) in
    let relays = Array.map (heap_relay pivots ready) blocks in
    (* spark-purity (baselined): par_range's claim runs each block once;
       a block writes only its own rows of [d], and through its relay
       only its own pivots' buffers and flags, each flag once. *)
    S.par_range ~chunks:p 0 (p - 1)
      (fun b _ -> walk ~size relays.(b) d ~off:0 blocks.(b))
      ~combine:(fun () () -> ())
      ~init:();
    float_bits (Apsp.checksum d)

  let result_blob = rows_blob
end

(* ---------------- registry ---------------- *)

let all : (module S) list =
  [
    (module Sumeuler);
    (module Parfib);
    (module Matmul);
    (module Mandelbrot_w);
    (module Apsp_w);
  ]

let names = List.map (fun (module W : S) -> W.name) all

let find name =
  List.find_opt (fun (module W : S) -> W.name = name) all

(* ---------------- one timed run ---------------- *)

module Measure = Repro_metrics.Measure

let sample (module W : S) ~size ~cores : Measure.sample =
  let t0 = Repro_metrics.Metrics.now_ns () in
  let pool = Pool.create ~cores () in
  let spawn_ns = Repro_metrics.Metrics.now_ns () - t0 in
  let result, ns, gc =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        (* [Gc.quick_stat] counts a domain's allocation only at a minor
           collection (OCaml 5.1), so an untimed one on each side of the
           run brings every domain's count up to date; the closing one
           is not counted as the run's. *)
        Gc.minor ();
        let gc0 = Gc.quick_stat () in
        let t1 = Repro_metrics.Metrics.now_ns () in
        let result = Pool.run pool (fun () -> W.run ~size ()) in
        let ns = Repro_metrics.Metrics.now_ns () - t1 in
        Gc.minor ();
        let gc = Measure.gc_delta gc0 (Gc.quick_stat ()) in
        (result, ns, { gc with minor_collections = gc.minor_collections - 1 }))
  in
  (* after shutdown, so leftover runners are counted as fizzled and the
     spark ledger balances *)
  let row (e : Pool.events) =
    List.map
      (fun (k, v) -> (k, float_of_int v))
      [
        ("sparks_created", e.sparks_created);
        ("sparks_run", e.sparks_run);
        ("sparks_fizzled", e.sparks_fizzled);
        ("steal_attempts", e.steal_attempts);
        ("steals", e.steals);
        ("parks", e.parks);
        ("wakeups", e.wakeups);
      ]
  in
  {
    workload = W.name;
    backend = Domains;
    transport = None;
    size;
    workers = cores;
    ns;
    spawn_ns;
    result;
    gc;
    counts = row (Pool.events pool);
    per_worker = Array.map row (Pool.worker_events pool);
  }
