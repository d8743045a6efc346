(** Pure workloads wired to the real executor.

    Each workload is the same computation the simulator runs
    ([lib/workloads]) but with {e real} work on {e real} domains: no
    virtual cost charging, values computed by the actual kernels and
    checked against the sequential references.  Results are
    represented as a deterministic [int] checksum so a single
    signature covers integer- and float-valued benchmarks; float
    checksums are compared bit-for-bit (the parallel kernels perform
    their floating-point reductions in exactly the reference order, so
    equality is exact, not approximate). *)

module Euler = Repro_workloads.Euler
module Parfib = Repro_workloads.Parfib
module Matrix = Repro_workloads.Matrix
module Mandelbrot = Repro_workloads.Mandelbrot
module Apsp = Repro_workloads.Apsp
module S = Strategies

module type S = sig
  val name : string

  (** What [size] means for this workload. *)
  val size_doc : string

  val default_size : int

  (** Small size for tests and CI smoke runs. *)
  val quick_size : int

  (** Parallel run (uses {!Strategies}; degrades to sequential outside
      a {!Pool}).  Returns the checksum. *)
  val run : size:int -> unit -> int

  (** Sequential reference checksum (never sparks). *)
  val reference : size:int -> int
end

let float_bits f = Int64.to_int (Int64.bits_of_float f)

(* ---------------- sumEuler ---------------- *)

module Sumeuler : S = struct
  let name = "sumeuler"
  let size_doc = "sum of Euler's totient over [1..size]"
  let default_size = 300_000
  let quick_size = 2_000

  (* Contiguous blocks of [1..size], as lib/dist deals them.  phi's
     cost grows with k, so the last block costs most; with 512 blocks
     stealing still balances, and thieves start at that far end. *)
  let run ~size () =
    let chunks = max (S.default_chunks size) (min 512 (size / 50)) in
    S.par_range ~chunks 1 size Euler.sum_phi ~combine:( + ) ~init:0

  let reference ~size = Euler.sum_euler_ref size
end

(* ---------------- parfib ---------------- *)

module Parfib_w : S = struct
  let name = "parfib"
  let size_doc = "nfib size (naive call count), left branch sparked"
  let default_size = 34
  let quick_size = 24

  let rec nfib n = if n < 2 then 1 else nfib (n - 1) + nfib (n - 2) + 1

  (* The classic GpH stress shape: spark the left branch of every call
     above the threshold.  Threshold [size - 10] yields a few hundred
     sparks regardless of [size]. *)
  let rec pfib n threshold =
    if n < threshold || n < 2 then nfib n
    else
      let a, b =
        S.par (fun () -> pfib (n - 1) threshold) (fun () -> pfib (n - 2) threshold)
      in
      a + b + 1

  let run ~size () = pfib size (max 2 (size - 10))
  let reference ~size = Parfib.reference size
end

(* ---------------- matmul ---------------- *)

module Matmul : S = struct
  let name = "matmul"
  let size_doc = "size x size dense float multiply"
  let default_size = 384
  let quick_size = 64

  let inputs size = (Matrix.random ~seed:11 size, Matrix.random ~seed:23 size)

  let run ~size () =
    let a, b = inputs size in
    let bt = Matrix.transpose b and c = Array.make size [||] in
    (* spark-purity (baselined): each range stores rows into its own
       slots of [c], and a row is a pure function of [a], [bt] and [i]:
       duplicate evaluation stores identical values (idempotent). *)
    S.par_range ~chunks:(S.default_chunks size) 0 (size - 1)
      (fun lo hi ->
        for i = lo to hi do
          c.(i) <- Matrix.mul_row a bt i
        done)
      ~combine:(fun () () -> ())
      ~init:();
    float_bits (Matrix.checksum c)

  let reference ~size =
    let a, b = inputs size in
    float_bits (Matrix.checksum (Matrix.mul_ref a b))
end

(* ---------------- mandelbrot ---------------- *)

module Mandelbrot_w : S = struct
  let name = "mandelbrot"
  let size_doc = "size x size rendering of the default view"
  let default_size = 500
  let quick_size = 64

  let row_total ~size y =
    let _, total =
      Mandelbrot.compute_row ~view:Mandelbrot.default_view ~width:size
        ~height:size y
    in
    total

  let run ~size () =
    (* Irregular row costs: many fine chunks + round-robin-ish
       contiguous striping keeps the load balanced dynamically via
       stealing. *)
    let chunks = max (S.default_chunks size) (min 128 size) in
    S.par_range ~chunks 0 (size - 1)
      (fun lo hi ->
        let s = ref 0 in
        for y = lo to hi do
          s := !s + row_total ~size y
        done;
        !s)
      ~combine:( + ) ~init:0

  let reference ~size = Mandelbrot.reference ~width:size ~height:size ()
end

(* ---------------- apsp ---------------- *)

module Apsp_w : S = struct
  let name = "apsp"
  let size_doc = "all-pairs shortest paths on a size-node digraph"
  let default_size = 256
  let quick_size = 48

  (* One pivot step on rows [lo..hi], in place.  Row [k] is read-only
     during step [k] (its own update is the identity), so concurrent
     row ranges only share read access; arithmetic is exactly
     [Apsp.floyd_warshall]'s. *)
  let pivot_step d k lo hi =
    let n = Array.length d in
    let dk = d.(k) in
    for i = lo to hi do
      let di = d.(i) in
      let dik = di.(k) in
      if dik < infinity then
        for j = 0 to n - 1 do
          let via = dik +. dk.(j) in
          if via < di.(j) then di.(j) <- via
        done
    done

  let run ~size () =
    let d = Array.map Array.copy (Apsp.graph size) in
    let chunks = S.default_chunks size in
    for k = 0 to size - 1 do
      (* per-pivot barrier: par_range forces every range before
         returning, matching the simulator's pivot-chain dependency.
         spark-purity (baselined): pivot_step min-updates disjoint row
         ranges of [d]; within one pivot step the update is a pure
         function of step-entry state, so re-evaluation is idempotent. *)
      S.par_range ~chunks 0 (size - 1)
        (fun lo hi -> pivot_step d k lo hi)
        ~combine:(fun () () -> ())
        ~init:()
    done;
    float_bits (Apsp.checksum d)

  let reference ~size =
    float_bits (Apsp.checksum (Apsp.floyd_warshall (Apsp.graph size)))
end

(* ---------------- registry ---------------- *)

let all : (module S) list =
  [
    (module Sumeuler);
    (module Parfib_w);
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
        let gc0 = Gc.quick_stat () in
        let t1 = Repro_metrics.Metrics.now_ns () in
        let result = Pool.run pool (fun () -> W.run ~size ()) in
        let ns = Repro_metrics.Metrics.now_ns () - t1 in
        (result, ns, Measure.gc_delta gc0 (Gc.quick_stat ())))
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
    counts = [];
    per_worker = [||];
  }
