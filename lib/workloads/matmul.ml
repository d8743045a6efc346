(** Dense matrix multiplication: the paper's second benchmark (Sec. V,
    Figs. 3 and 4).

    - {!gph}: "regular blocks of the result are turned into sparks.
      The block size, i.e. the spark granularity, is tunable by a
      parameter."  Each result block only depends on a band of each
      input, which is the data-dependence advantage over row
      parallelism the paper describes.
    - {!eden_cannon}: Cannon's algorithm on a torus topology skeleton:
      q x q worker processes hold one block of each input, multiply-
      accumulate, and exchange blocks (A leftwards, B upwards) for q
      rounds.  "Communication is reduced to a minimum."

    Both support [Real] and [Synthetic] payloads (see {!Matrix}).  A
    [Real] run returns its product's checksum unchecked, for the caller
    to compare with {!Matrix.mul_ref}'s; a [Synthetic] run returns 0.0. *)

module Cost = Repro_util.Cost
module Gph = Repro_core.Gph
module Eden = Repro_core.Eden
module Skeletons = Repro_core.Skeletons
module Api = Repro_parrts.Rts.Api

(** GpH blocked multiply.  [block] is the spark granularity (block edge
    length); default picks roughly 2 blocks per capability per
    dimension. *)
let gph ?block ?(payload = Matrix.Synthetic) ?(seed = 42) ~n () =
  Api.set_resident (Matrix.resident ~n);
  let block =
    match block with
    | Some b -> b
    | None ->
        let per_side =
          max 1 (int_of_float (ceil (sqrt (float_of_int (2 * Api.ncaps ())))))
        in
        max 1 ((n + per_side - 1) / per_side)
  in
  let a, b, out =
    match payload with
    | Matrix.Real -> (Matrix.random ~seed n, Matrix.random ~seed:(seed + 1) n, Matrix.zero n)
    | Matrix.Synthetic -> ([||], [||], [||])
  in
  (* charge building the inputs *)
  Api.charge (Cost.make (4 * n * n) ~alloc:(16 * n * n));
  let blocks = ref [] in
  let r0 = ref 0 in
  while !r0 < n do
    let c0 = ref 0 in
    while !c0 < n do
      blocks := (!r0, !c0) :: !blocks;
      c0 := !c0 + block
    done;
    r0 := !r0 + block
  done;
  (* A block is a nested lazy structure, as in the Haskell program: one
     shared thunk per row segment, and a block thunk that forces its
     row segments.  Sharing at row grain keeps accidental duplicate
     evaluation (lazy black-holing) cheap: a thread re-entering a block
     finds most row segments already evaluated. *)
  let row_node ~c0 ~cols i =
    Gph.thunk ~size:(cols * 8)
      ~cost:(Matrix.block_cost ~n ~rows:1 ~cols)
      (fun () ->
        match payload with
        | Matrix.Real -> Matrix.mul_row_segment a b out ~i ~c0 ~cols
        | Matrix.Synthetic -> ())
  in
  let nodes =
    List.map
      (fun (r0, c0) ->
        let rows = min block (n - r0) and cols = min block (n - c0) in
        let row_nodes =
          List.init rows (fun k -> row_node ~c0 ~cols (r0 + k))
        in
        Gph.thunk ~size:(rows * 8)
          ~cost:(Repro_util.Cost.make (40 * rows) ~alloc:(8 * rows))
          (fun () -> List.iter (fun rn -> ignore (Gph.force rn)) row_nodes))
      (List.rev !blocks)
  in
  (* Spark in reverse order: thieves steal oldest-first, so they work
     from the far end of the block list while the main thread's
     consuming fold forces from the front — the two fronts meet once
     instead of chasing each other (a standard GpH tuning; the paper
     notes the program's granularity/behaviour is "tunable by a
     parameter"). *)
  Gph.par_list Gph.rwhnf (List.rev nodes);
  List.iter Gph.seq nodes;
  Matrix.checksum out

(** Eden: Cannon's algorithm on a [q x q] torus of processes (paper:
    3x3 on 9 virtual PEs, 4x4 on 17 virtual PEs).  [n] must be
    divisible by [q]. *)
let eden_cannon ?(payload = Matrix.Synthetic) ?(seed = 42) ~n ~q () =
  if n mod q <> 0 then invalid_arg "Matmul.eden_cannon: q must divide n";
  let m = n / q in
  (* every PE holds a 3-block working set (A, B, C) *)
  let block_bytes = 8 * m * m in
  for pe = 0 to Api.ncaps () - 1 do
    Api.set_resident_of ~cap:pe (4 * block_bytes)
  done;
  let a, b =
    match payload with
    | Matrix.Real -> (Matrix.random ~seed n, Matrix.random ~seed:(seed + 1) n)
    | Matrix.Synthetic -> ([||], [||])
  in
  Api.charge (Cost.make (4 * n * n) ~alloc:(16 * n * n));
  let tr_block =
    {
      Eden.bytes = (fun (_ : Matrix.mat) -> 24 + block_bytes);
      nf_cycles = (fun _ -> m * m);
    }
  in
  (* initial skew: worker (r,c) starts with A(r, r+c) and B(r+c, c) *)
  let initial_a r c =
    match payload with
    | Matrix.Real -> Matrix.sub_block a ~r0:(r * m) ~c0:((r + c) mod q * m) ~bs:m
    | Matrix.Synthetic -> Array.make_matrix 1 1 0.0
  in
  let initial_b r c =
    match payload with
    | Matrix.Real -> Matrix.sub_block b ~r0:((r + c) mod q * m) ~c0:(c * m) ~bs:m
    | Matrix.Synthetic -> Array.make_matrix 1 1 0.0
  in
  (* The parent distributes the 2*q*q initial blocks; charge it the
     normal-form reduction + packing work for all of them (the torus
     workers charge the matching unpack on their side). *)
  Api.charge (Cost.make (4 * q * q * m * m));
  let checksums =
    Skeletons.torus ~rows:q ~cols:q ~tr_a:tr_block ~tr_b:tr_block
      ~tr_out:Eden.t_float
      ~worker:(fun ~row ~col ~recv_a ~send_a ~recv_b ~send_b ->
        (* the parent ships the two starting blocks; we model that
           hand-off as the first ring messages *)
        let a_blk = ref (initial_a row col) and b_blk = ref (initial_b row col) in
        (* receiving the initial blocks from the parent costs one
           block-unpack each; charge it directly *)
        Api.charge (Cost.make (2 * m * m) ~alloc:(2 * block_bytes));
        let c_blk =
          match payload with
          | Matrix.Real -> Matrix.zero m
          | Matrix.Synthetic -> [||]
        in
        for step = 0 to q - 1 do
          Api.charge (Matrix.mac_block_cost ~m);
          (match payload with
          | Matrix.Real -> Matrix.mac_block !a_blk !b_blk c_blk
          | Matrix.Synthetic -> ());
          if step < q - 1 then begin
            send_a !a_blk;
            send_b !b_blk;
            (match recv_a () with
            | Some blk -> a_blk := blk
            | None -> failwith "cannon: A ring closed early");
            match recv_b () with
            | Some blk -> b_blk := blk
            | None -> failwith "cannon: B ring closed early"
          end
        done;
        match payload with
        | Matrix.Real -> Matrix.checksum c_blk
        | Matrix.Synthetic -> 0.0)
  in
  List.fold_left ( +. ) 0.0 checksums
