(** All-pairs shortest paths: the paper's "genuinely parallel
    algorithm" (Sec. V, Fig. 5), adapted from Plasmeijer & van Eekelen.

    The algorithm is Floyd–Warshall organised by pivot rows: the row of
    node [k] after [k] update steps is the {e pivot} for step [k], and
    every other row is updated against pivots in order.

    - {!eden_ring}: each ring process owns a contiguous block of rows;
      pivot rows circulate around the ring and are applied to the local
      block as they arrive.  "These row updates depend on each previous
      row, but nevertheless can be pipelined."
    - {!gph}: "sparks an evaluation for each row in advance and relies
      on the runtime system efficiently synchronising concurrent
      evaluations."  The pivot chain is a sequence of {e shared}
      thunks forced by every row thread — exactly the structure that
      triggers massive duplicate evaluation under lazy black-holing
      and works under eager black-holing (Sec. IV-A.3).

    Weights are floats; absent edges are [infinity].  The min-plus
    arithmetic is real; its simulated time and allocation are charged,
    not taken from the host. *)

module Cost = Repro_util.Cost
module Node = Repro_heap.Node
module Gph = Repro_core.Gph
module Eden = Repro_core.Eden
module Skeletons = Repro_core.Skeletons
module Api = Repro_parrts.Rts.Api

(* Rows [lo..hi] of a deterministic random digraph's weight matrix.
   Rows before [lo] are drawn into one dropped row, so a block built
   alone has the whole matrix's bits: an absent edge takes one draw
   and a weight two or more ([Rng.int] may reject), so no jump-ahead
   ([Rng.skip]) can find a row's first draw.  Weights go straight into
   rows, unboxed, and the draws allocate nothing. *)
let graph_rows ?(seed = 7) ?(density = 0.2) n ~lo ~hi : float array array =
  let rng = Repro_util.Rng.create seed in
  let draw i (row : float array) =
    for j = 0 to n - 1 do
      row.(j) <-
        (if i = j then 0.0
         else if Repro_util.Rng.bernoulli rng density then
           float_of_int (1 + Repro_util.Rng.int rng 100)
         else infinity)
    done
  in
  let dropped = Array.create_float n in
  for i = 0 to lo - 1 do
    draw i dropped
  done;
  Array.init (max 0 (hi - lo + 1)) (fun r ->
      let row = Array.create_float n in
      draw (lo + r) row;
      row)

let graph ?seed ?density n = graph_rows ?seed ?density n ~lo:0 ~hi:(n - 1)

(* Sequential Floyd–Warshall reference. *)
let floyd_warshall (adj : float array array) =
  let n = Array.length adj in
  let d = Array.map Array.copy adj in
  for k = 0 to n - 1 do
    let dk = d.(k) in
    for i = 0 to n - 1 do
      let di = d.(i) in
      let dik = di.(k) in
      if dik < infinity then
        for j = 0 to n - 1 do
          let via = dik +. dk.(j) in
          if via < di.(j) then di.(j) <- via
        done
    done
  done;
  d

(* [acc] plus every finite entry of [d], row by row in index order, in
   an unboxed sum. *)
let checksum_from acc (d : float array array) =
  let s = ref acc in
  for i = 0 to Array.length d - 1 do
    let row = d.(i) in
    for j = 0 to Array.length row - 1 do
      let x = row.(j) in
      if x < infinity then s := !s +. x
    done
  done;
  !s

let checksum d = checksum_from 0.0 d

(* Relax [row] in place against pivot row [pk] of node [k].
   [row_update_cost]'s [~alloc] charges the fresh row a Haskell update
   allocates, so the host relaxes a row private to its evaluator.

   The lengths are compared once, so each pass relaxes eight lanes
   with unchecked reads and writes below that length; the 0-7 elements
   left over go one at a time.  Element [j]'s update reads only
   [pk.(j)] and [row.(j)], so any grouping gives [floyd_warshall]'s
   bits, also when [pk] is [row] itself ([rk] is then 0.0 and nothing
   changes).  Eight lanes beat four at every size the repository runs
   (EXPERIMENTS.md, "The dense kernels checked every element"). *)
let relax (row : float array) ~k (pk : float array) =
  let n = Array.length row in
  if Array.length pk <> n then invalid_arg "Apsp.relax: pivot length";
  let rk = row.(k) in
  if rk < infinity then begin
    for q = 0 to (n / 8) - 1 do
      let j = 8 * q in
      let v0 = rk +. Array.unsafe_get pk j
      and v1 = rk +. Array.unsafe_get pk (j + 1)
      and v2 = rk +. Array.unsafe_get pk (j + 2)
      and v3 = rk +. Array.unsafe_get pk (j + 3)
      and v4 = rk +. Array.unsafe_get pk (j + 4)
      and v5 = rk +. Array.unsafe_get pk (j + 5)
      and v6 = rk +. Array.unsafe_get pk (j + 6)
      and v7 = rk +. Array.unsafe_get pk (j + 7) in
      if v0 < Array.unsafe_get row j then Array.unsafe_set row j v0;
      if v1 < Array.unsafe_get row (j + 1) then Array.unsafe_set row (j + 1) v1;
      if v2 < Array.unsafe_get row (j + 2) then Array.unsafe_set row (j + 2) v2;
      if v3 < Array.unsafe_get row (j + 3) then Array.unsafe_set row (j + 3) v3;
      if v4 < Array.unsafe_get row (j + 4) then Array.unsafe_set row (j + 4) v4;
      if v5 < Array.unsafe_get row (j + 5) then Array.unsafe_set row (j + 5) v5;
      if v6 < Array.unsafe_get row (j + 6) then Array.unsafe_set row (j + 6) v6;
      if v7 < Array.unsafe_get row (j + 7) then Array.unsafe_set row (j + 7) v7
    done;
    for j = n - (n mod 8) to n - 1 do
      let via = rk +. pk.(j) in
      if via < row.(j) then row.(j) <- via
    done
  end

(* Cost of updating one row of length [n] against one pivot. *)
let op_cycles = 6

let row_update_cost n = Cost.make (n * op_cycles) ~alloc:((8 * n) + 24)

let resident n = 2 * n * n * 8

(* ------------------------------------------------------------------ *)
(* GpH version: a shared pivot chain of thunks                         *)
(* ------------------------------------------------------------------ *)

(** The GpH program.  For each node [i] a thunk computes row [i]'s
    final value by folding over all pivots, forcing each shared pivot
    thunk on the way; the pivot thunks themselves fold over the earlier
    pivots.  Every final row is sparked in advance.

    Final row [i] folded over pivots [0..i-1] is pivot [i] itself.  So
    the row forces those pivots without relaxing, then forces pivot
    [i+1] and starts from a copy of pivot [i], which holds a value by
    then: pivot [i+1]'s body forced it.  The forces come in the fold's
    order, and the host relaxes n³ elements instead of 1.5 n³.  The
    last row has no pivot after it, so it folds as before.  These
    bodies only force, so every thunk here opts in to {!Gph.thunk}'s
    [~forces_only]. *)
let gph ?(seed = 7) ~n () =
  Api.set_resident (resident n);
  let adj = graph ~seed n in
  Api.charge (Cost.make (4 * n * n) ~alloc:(16 * n * n));
  (* pivots.(k) = row k after being updated with pivots 0..k-1 *)
  let pivots : float array Gph.t option array = Array.make n None in
  let pivot_chain_cost k =
    (* folding row k over pivots 0..k-1 *)
    Cost.scale k (row_update_cost n)
  in
  let rec pivot k : float array Gph.t =
    match pivots.(k) with
    | Some node -> node
    | None ->
        let node =
          Gph.thunk ~size:((8 * n) + 24) ~forces_only:true
            ~cost:(pivot_chain_cost k) (fun () -> fold_pivots k)
        in
        pivots.(k) <- Some node;
        node
  (* row k folded over pivots 0..k-1: pivot k's body *)
  and fold_pivots k =
    let row = Array.copy adj.(k) in
    for k' = 0 to k - 1 do
      relax row ~k:k' (Gph.force (pivot k'))
    done;
    row
  in
  (* create all pivot thunks up front (the lazy structure exists before
     any evaluation starts) *)
  for k = 0 to n - 1 do
    ignore (pivot k)
  done;
  let final_row i =
    Gph.thunk ~size:((8 * n) + 24) ~forces_only:true
      ~cost:(Cost.scale n (row_update_cost n))
      (fun () ->
        if i = n - 1 then fold_pivots i
        else begin
          for k = 0 to i - 1 do
            ignore (Gph.force (pivot k))
          done;
          ignore (Gph.force (pivot (i + 1)));
          let row = Array.copy (Node.get_value (pivot i)) in
          (* pivot i+1 holds a value, so forcing it again only reads *)
          for k = i + 1 to n - 1 do
            relax row ~k (Gph.force (pivot k))
          done;
          row
        end)
  in
  let rows = List.init n final_row in
  Gph.par_list Gph.rwhnf rows;
  let result = Array.of_list (List.map Gph.force rows) in
  (* the i-th final row must equal the fully-updated pivot row for i
     except that pivot i skipped its own (identity) step *)
  checksum result

(* ------------------------------------------------------------------ *)
(* Eden version: ring of row-block processes                           *)
(* ------------------------------------------------------------------ *)

(** Ring APSP.  [nprocs] defaults to [noPE]; process [p] owns the
    contiguous row block [p*b .. p*b+b).  Pivot rows circulate; each
    process applies every arriving pivot to its whole block and
    forwards it, and emits its own rows when their turn comes. *)
let eden_ring ?(seed = 7) ?nprocs ~n () =
  let nprocs = match nprocs with Some p -> p | None -> Api.ncaps () in
  let adj = graph ~seed n in
  Api.charge (Cost.make (4 * n * n) ~alloc:(16 * n * n));
  let bounds p =
    (* contiguous blocks, remainder spread over the first blocks *)
    let base = n / nprocs and extra = n mod nprocs in
    let lo = (p * base) + min p extra in
    let hi = lo + base + (if p < extra then 1 else 0) in
    (lo, hi)
  in
  let owner k =
    let rec go p = let lo, hi = bounds p in if k >= lo && k < hi then p else go (p + 1) in
    go 0
  in
  let tr_row =
    {
      Eden.bytes = (fun (_ : int * float array) -> 32 + (8 * n));
      nf_cycles = (fun _ -> n);
    }
  in
  let per_pe = (n / max 1 nprocs) + 1 in
  for pe = 0 to Api.ncaps () - 1 do
    Api.set_resident_of ~cap:pe (2 * per_pe * n * 8)
  done;
  let blocks =
    Skeletons.ring ~n:nprocs ~tr_ring:tr_row
      ~tr_out:
        {
          Eden.bytes = (fun (rows : float array array) -> 24 + (Array.length rows * ((8 * n) + 24)));
          nf_cycles = (fun rows -> Array.length rows * n);
        }
      ~distribute:(fun p ->
        let lo, hi = bounds p in
        Array.init (hi - lo) (fun i -> Array.copy adj.(lo + i)))
      ~worker:(fun p block recv send_right close_right ->
        let lo, hi = bounds p in
        let nrows = hi - lo in
        let apply_pivot k pk =
          Api.charge (Cost.scale nrows (row_update_cost n));
          for i = 0 to nrows - 1 do
            if lo + i <> k then relax block.(i) ~k pk
          done
        in
        for k = 0 to n - 1 do
          if owner k = p then begin
            (* my row k is up to date: publish a copy around the ring
               first (pipelining; later pivots keep relaxing the block
               in place), then update the rest of my block *)
            let row = block.(k - lo) in
            send_right (k, Array.copy row);
            apply_pivot k row
          end
          else begin
            match recv () with
            | Some (k', pk) ->
                assert (k' = k);
                apply_pivot k pk;
                (* forward unless the next process is the owner *)
                let next = (p + 1) mod nprocs in
                if owner k <> next then send_right (k, pk)
            | None -> failwith "apsp ring closed early"
          end
        done;
        close_right ();
        block)
  in
  (* blocks come back in ring order = row order *)
  List.fold_left checksum_from 0.0 blocks
