(** The five benchmarks, each defined once for both real backends.

    Each workload is the same computation the simulator runs
    ([lib/workloads]) but with {e real} work: no virtual cost charging,
    values computed by the actual kernels and checked against the
    sequential references.  A module states its name, sizes, inputs,
    reference and leaf kernel once and holds both decompositions side
    by side:

    - [run] is the shared-heap form (GpH): sparked closures over one
      heap on a {!Pool}, through {!Strategies}.
    - [start]/[step]/[execute] is the private-heap form (Eden), run by
      [Repro_dist.Farm].  It obeys Eden's heap-boundary rule: a task is
      {e data} (a chunk descriptor, a pivot row), never a closure over
      shared state, and a result is a fully-evaluated value marshalled
      back whole.  Each workload is a sequence of {e rounds}
      (barriers): most need one round of independent tasks; APSP needs
      one round per pivot with the next pivot row flowing back through
      the coordinator, and {e pins} its block tasks so each PE keeps
      its rows across rounds (PE-resident state, as in Eden's ring
      skeleton).

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

  val step :
    state -> result array -> [ `Done of int | `Round of state * task array * bool ]

  val execute : size:int -> task -> result
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

  let step () results = `Done (Array.fold_left ( + ) 0 results)
  let execute ~size:_ (lo, hi) = Euler.sum_phi lo hi

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

  let step internal results =
    `Done (internal + Array.fold_left ( + ) 0 results)

  let execute ~size:_ n = nfib n
  let result_blob = None
end

(* ---------------- matmul ---------------- *)

module Matmul : S = struct
  let name = "matmul"
  let size_doc = "size x size dense float multiply"
  let default_size = 384
  let quick_size = 64
  let inputs size = (Matrix.random ~seed:11 size, Matrix.random ~seed:23 size)

  let reference ~size =
    let a, b = inputs size in
    float_bits (Matrix.checksum (Matrix.mul_ref a b))

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

  type task = int * int  (** inclusive row range of the product *)

  type result = float array array  (** the computed rows *)

  type state = float array array  (** the product, assembled row by row *)

  (* PEs regenerate the (deterministic) inputs locally instead of
     receiving them — Eden replicates closed inputs the same way; only
     the computed rows travel back. Cached per size, [b] transposed,
     so multi-task PEs pay the generation once per process. *)
  let pe_inputs : (int, Matrix.mat * Matrix.mat) Hashtbl.t = Hashtbl.create 4

  let chunk_count ~size ~procs = max 1 (min size (4 * procs))

  let start ~size ~procs =
    let chunks = chunk_count ~size ~procs in
    let tasks = Array.init chunks (block ~size ~chunks) in
    (Matrix.zero size, tasks, false)

  let step c results =
    let row = ref 0 in
    Array.iter
      (Array.iter (fun r ->
           c.(!row) <- r;
           incr row))
      results;
    `Done (float_bits (Matrix.checksum c))

  let execute ~size (lo, hi) =
    let a, bt =
      match Hashtbl.find_opt pe_inputs size with
      | Some abt -> abt
      | None ->
          let a, b = inputs size in
          let abt = (a, Matrix.transpose b) in
          Hashtbl.replace pe_inputs size abt;
          abt
    in
    Array.init (hi - lo + 1) (fun r -> Matrix.mul_row a bt (lo + r))

  (* The bulk payload of the whole suite: a block of product rows.
     Flattened with a [rows; cols] shape prefix — both are far below
     2^53, so the float round-trip is exact, as is the row data
     itself (raw IEEE bits either way). *)
  let result_blob =
    let enc (rows : result) =
      let nr = Array.length rows in
      let nc = if nr = 0 then 0 else Array.length rows.(0) in
      let out = Array.make (2 + (nr * nc)) 0.0 in
      out.(0) <- float_of_int nr;
      out.(1) <- float_of_int nc;
      Array.iteri
        (fun i row -> Array.blit row 0 out (2 + (i * nc)) nc)
        rows;
      out
    in
    let dec (flat : float array) : result =
      let nr = int_of_float flat.(0) and nc = int_of_float flat.(1) in
      Array.init nr (fun i -> Array.sub flat (2 + (i * nc)) nc)
    in
    Some (enc, dec)
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

  let step () results =
    `Done
      (Array.fold_left
         (fun acc rows -> Array.fold_left ( + ) acc rows)
         0 results)

  let execute ~size (lo, hi) =
    Array.init (max 0 (hi - lo + 1)) (fun i -> row_total ~size (lo + i))

  (* Row totals are iteration counts (far below 2^53): exact as
     floats, so the rendered rows ride the zero-copy plane. *)
  let result_blob =
    let enc (rows : result) = Array.map float_of_int rows in
    let dec (flat : float array) : result = Array.map int_of_float flat in
    Some (enc, dec)
end

(* ---------------- apsp ---------------- *)

(* One pivot step on rows [lo..hi] of [d], in place, against [pivot],
   row [k] at entry of step [k]: exactly [Apsp.floyd_warshall]'s
   min-plus arithmetic, skipping unreachable rows.  Row [k]'s own
   update is the identity, so concurrent row ranges of one matrix only
   share read access. *)
let pivot_step d pivot k lo hi =
  let n = Array.length pivot in
  for i = lo to hi do
    let di = d.(i) in
    let dik = di.(k) in
    if dik < infinity then
      for j = 0 to n - 1 do
        let via = dik +. pivot.(j) in
        if via < di.(j) then di.(j) <- via
      done
  done

module Apsp_w : S = struct
  let name = "apsp"
  let size_doc = "all-pairs shortest paths on a size-node digraph"
  let default_size = 256
  let quick_size = 48

  let reference ~size =
    float_bits (Apsp.checksum (Apsp.floyd_warshall (Apsp.graph size)))

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
        (fun lo hi -> pivot_step d d.(k) k lo hi)
        ~combine:(fun () () -> ())
        ~init:()
    done;
    float_bits (Apsp.checksum d)

  (* One barrier round per pivot, Eden-ring style: each PE owns a
     block of rows for the whole run (pinned tasks + a process-local
     cache); only the pivot row circulates, via the coordinator.  The
     PE owning row [k+1] returns it (updated through pivot [k]) as the
     next round's pivot; the last round returns the blocks. *)

  type task = {
    k : int;
    lo : int;  (** this PE's resident block, rows [lo..hi] *)
    hi : int;
    pivot : float array;  (** row [k] at entry of step [k] *)
    last : bool;
  }

  type result = {
    next_pivot : float array option;  (** row [k+1] if this block owns it *)
    final : float array array option;  (** the block, on the last round *)
  }

  type state = { n : int; k : int; pivot : float array; blocks : (int * int) array }

  (* (size, lo) identifies a resident block within a worker process;
     the stored [k] asserts rounds arrive in pivot order. *)
  let resident : (int * int, int ref * float array array) Hashtbl.t =
    Hashtbl.create 8

  let graph_rows size lo hi =
    let g = Apsp.graph size in
    Array.init (max 0 (hi - lo + 1)) (fun i -> Array.copy g.(lo + i))

  let execute ~size { k; lo; hi; pivot; last } =
    if hi < lo then { next_pivot = None; final = (if last then Some [||] else None) }
    else begin
      let key = (size, lo) in
      let expected_k, d =
        match Hashtbl.find_opt resident key with
        | Some (ek, d) when !ek = k -> (ek, d)
        | Some (ek, _) when !ek <> k && k = 0 ->
            (* fresh run reusing this process: rebuild the block *)
            let d = graph_rows size lo hi in
            Hashtbl.replace resident key (ek, d);
            ek := 0;
            (ek, d)
        | Some (ek, _) ->
            failwith
              (Printf.sprintf "apsp: pivot %d arrived at block %d, expected %d" k
                 lo !ek)
        | None ->
            if k <> 0 then
              failwith
                (Printf.sprintf
                   "apsp: block %d first saw pivot %d (blocks are pinned)" lo k);
            let ek = ref 0 and d = graph_rows size lo hi in
            Hashtbl.replace resident key (ek, d);
            (ek, d)
      in
      pivot_step d pivot k 0 (hi - lo);
      expected_k := k + 1;
      let next_pivot =
        if (not last) && k + 1 >= lo && k + 1 <= hi then
          Some (Array.copy d.(k + 1 - lo))
        else None
      in
      let final =
        if last then begin
          Hashtbl.remove resident key;
          Some (Array.map Array.copy d)
        end
        else None
      in
      { next_pivot; final }
    end

  (* Option-heavy record; rounds ship one pivot row each — not worth
     a flat encoding. *)
  let result_blob = None

  let round_tasks st =
    Array.map
      (fun (lo, hi) ->
        { k = st.k; lo; hi; pivot = st.pivot; last = st.k = st.n - 1 })
      st.blocks

  let start ~size ~procs =
    let n = size in
    if n = 0 then
      (* degenerate: one empty pinned round, [step] finishes immediately *)
      ({ n; k = 0; pivot = [||]; blocks = [||] }, [||], true)
    else begin
      let blocks = Array.init procs (block ~size:n ~chunks:procs) in
      let pivot = Array.copy (Apsp.graph n).(0) in
      let st = { n; k = 0; pivot; blocks } in
      (st, round_tasks st, true)
    end

  let step st results =
    if st.n = 0 then `Done (float_bits (Apsp.checksum [||]))
    else if st.k = st.n - 1 then begin
      let d = Array.make st.n [||] in
      let row = ref 0 in
      Array.iter
        (fun r ->
          match r.final with
          | Some rows ->
              Array.iter
                (fun fr ->
                  d.(!row) <- fr;
                  incr row)
                rows
          | None -> failwith "apsp: last round returned no block")
        results;
      `Done (float_bits (Apsp.checksum d))
    end
    else begin
      let next =
        Array.fold_left
          (fun acc r ->
            match (acc, r.next_pivot) with
            | None, Some p -> Some p
            | acc, None -> acc
            | Some _, Some _ -> failwith "apsp: two PEs claim the next pivot")
          None results
      in
      match next with
      | None -> failwith "apsp: no PE returned the next pivot"
      | Some pivot ->
          let st = { st with k = st.k + 1; pivot } in
          `Round (st, round_tasks st, true)
    end
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
