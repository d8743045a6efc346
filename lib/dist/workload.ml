(** Workloads decomposed for distribution: pure-data tasks executed on
    remote PEs with private heaps.

    Where [Repro_exec.Workload] expresses each benchmark as sparked
    closures over a shared heap, the distributed form must obey Eden's
    heap-boundary rule: a task is {e data} (a chunk descriptor, a
    pivot row), never a closure over shared state, and a result is a
    fully-evaluated value marshalled back whole.  Each workload is a
    sequence of {e rounds} (barriers): most need one round of
    independent tasks; APSP needs one round per pivot with the next
    pivot row flowing back through the coordinator, and {e pins} its
    block tasks so each PE keeps its rows across rounds (PE-resident
    state, as in Eden's ring skeleton).

    Results are combined in task order on the coordinator, so every
    checksum is bit-identical to the sequential reference — the same
    guarantee the shared-heap executor gives, now across process
    boundaries. *)

module Euler = Repro_workloads.Euler
module Matrix = Repro_workloads.Matrix
module Mandelbrot = Repro_workloads.Mandelbrot
module Apsp = Repro_workloads.Apsp

module type S = sig
  val name : string
  val size_doc : string
  val default_size : int
  val quick_size : int

  type task
  (** Pure data shipped to a PE ([Marshal] without closures). *)

  type result
  (** Fully-evaluated value shipped back. *)

  type state
  (** Coordinator state threaded between rounds. *)

  (** First round: tasks plus whether they are {e pinned} (task [i]
      must run on PE [i mod procs]; required when PEs keep
      round-to-round resident state). *)
  val start : size:int -> procs:int -> state * task array * bool

  (** Barrier: all of a round's results, in task order.  Either the
      final checksum or the next round. *)
  val step :
    state -> result array -> [ `Done of int | `Round of state * task array * bool ]

  (** Runs on the PE.  May keep process-local caches (e.g. regenerated
      input matrices); must not depend on coordinator state. *)
  val execute : size:int -> task -> result

  (** Bulk-result codec for the zero-[Marshal] data plane (see
      {!Message.payload}): [Some (enc, dec)] when results are
      float-dominated; [dec (enc r) = r] bit-for-bit.  The executor
      uses it on {e both} transports — over shm the floats cross
      without any intermediate copy. *)
  val result_blob : ((result -> float array) * (float array -> result)) option

  (** Sequential reference checksum (same value as
      [Repro_exec.Workload]'s for the same name and size). *)
  val reference : size:int -> int
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

  type task = int * int  (** inclusive [k] range *)

  type result = int
  type state = unit

  let chunk_count size = max 1 (min 512 (size / 50))

  let start ~size ~procs:_ =
    let chunks = chunk_count size in
    let tasks =
      Array.init chunks (fun c ->
          let lo, hi = block ~size ~chunks c in
          (lo + 1, hi + 1))
    in
    ((), tasks, false)

  let step () results = `Done (Array.fold_left ( + ) 0 results)

  let execute ~size:_ (lo, hi) =
    let s = ref 0 in
    for k = lo to hi do
      s := !s + Euler.phi_fast k
    done;
    !s

  (* one int per task: the marshalled form is already minimal *)
  let result_blob = None
  let reference ~size = Euler.sum_euler_ref size
end

(* ---------------- parfib ---------------- *)

module Parfib : S = struct
  let name = "parfib"
  let size_doc = "nfib size (naive call count), call tree farmed at a threshold"
  let default_size = 34
  let quick_size = 24

  type task = int  (** one sub-tree: compute nfib of this argument *)

  type result = int

  type state = int  (** internal-node contribution of the unfolded prefix *)

  let threshold size = max 2 (size - 10)

  (* Unfold the call tree down to the threshold, exactly as the
     shared-heap version sparks it: every internal node contributes
     [+1], the leaves become remote tasks. *)
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

  (* Real work: the naive exponential recursion, not the memoised
     [Repro_workloads.Parfib.nfib]. *)
  let rec nfib n = if n < 2 then 1 else nfib (n - 1) + nfib (n - 2) + 1
  let execute ~size:_ n = nfib n
  let result_blob = None
  let reference ~size = Repro_workloads.Parfib.reference size
end

(* ---------------- matmul ---------------- *)

module Matmul : S = struct
  let name = "matmul"
  let size_doc = "size x size dense float multiply"
  let default_size = 384
  let quick_size = 64

  type task = int * int  (** inclusive row range of the product *)

  type result = float array array  (** the computed rows *)

  type state = float array array  (** the product, assembled row by row *)

  (* PEs regenerate the (deterministic) inputs locally instead of
     receiving them — Eden replicates closed inputs the same way; only
     the computed rows travel back. Cached per size, [b] transposed,
     so multi-task PEs pay the generation once per process. *)
  let inputs_cache : (int, Matrix.mat * Matrix.mat) Hashtbl.t =
    Hashtbl.create 4

  let inputs size =
    match Hashtbl.find_opt inputs_cache size with
    | Some abt -> abt
    | None ->
        let b = Matrix.random ~seed:23 size in
        let abt = (Matrix.random ~seed:11 size, Matrix.transpose b) in
        Hashtbl.replace inputs_cache size abt;
        abt

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
    let a, bt = inputs size in
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

  let reference ~size =
    let a = Matrix.random ~seed:11 size and b = Matrix.random ~seed:23 size in
    float_bits (Matrix.checksum (Matrix.mul_ref a b))
end

(* ---------------- mandelbrot ---------------- *)

module Mandelbrot_w : S = struct
  let name = "mandelbrot"
  let size_doc = "size x size rendering of the default view"
  let default_size = 500
  let quick_size = 64

  type task = int * int  (** inclusive row range *)

  type result = int array  (** per-row iteration totals for the range *)

  type state = unit

  let chunk_count size = max 1 (min 128 size)

  let start ~size ~procs:_ =
    let chunks = chunk_count size in
    ((), Array.init chunks (block ~size ~chunks), false)

  let step () results =
    `Done
      (Array.fold_left
         (fun acc rows -> Array.fold_left ( + ) acc rows)
         0 results)

  let execute ~size (lo, hi) =
    Array.init
      (max 0 (hi - lo + 1))
      (fun i ->
        let _, total =
          Mandelbrot.compute_row ~view:Mandelbrot.default_view ~width:size
            ~height:size (lo + i)
        in
        total)

  (* Row totals are iteration counts (far below 2^53): exact as
     floats, so the rendered rows ride the zero-copy plane. *)
  let result_blob =
    let enc (rows : result) = Array.map float_of_int rows in
    let dec (flat : float array) : result = Array.map int_of_float flat in
    Some (enc, dec)

  let reference ~size = Mandelbrot.reference ~width:size ~height:size ()
end

(* ---------------- apsp ---------------- *)

module Apsp_w : S = struct
  let name = "apsp"
  let size_doc = "all-pairs shortest paths on a size-node digraph"
  let default_size = 256
  let quick_size = 48

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

  (* Identical arithmetic to the shared-heap executor's [pivot_step]
     (and so to [Apsp.floyd_warshall]): min-plus update of each
     resident row against the pivot, skipping unreachable rows. *)
  let update_block d ~lo pivot k =
    let n = Array.length pivot in
    Array.iteri
      (fun r di ->
        ignore r;
        let dik = di.(k) in
        if dik < infinity then
          for j = 0 to n - 1 do
            let via = dik +. pivot.(j) in
            if via < di.(j) then di.(j) <- via
          done)
      d;
    ignore lo

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
      update_block d ~lo pivot k;
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

  let reference ~size =
    float_bits (Apsp.checksum (Apsp.floyd_warshall (Apsp.graph size)))
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
let find name = List.find_opt (fun (module W : S) -> W.name = name) all
