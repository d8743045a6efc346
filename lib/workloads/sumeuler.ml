(** sumEuler: the paper's "simple map-reduce operation" (Sec. V,
    Figs. 1–3): sum of the Euler totient over [[1..n]].

    - {!gph} is the GpH program: split the input into sublists, build a
      thunk per sublist, [parList rnf] over the thunks, sum the forced
      results — then re-check the result with a sequential computation
      (the tail phase visible in the paper's traces).
    - {!eden} is the Eden program: a [parMapReduce]-style skeleton over
      [noPE] {e contiguous} sublists ([splitIntoN]) — contiguous
      splitting is what gives the "sub-optimal static load balance" the
      paper notes for trace e), since the cost of [phi k] grows with
      [k].

    Both compute the real value (via the fast totient) while charging
    the naive kernel's virtual cost. *)

module Cost = Repro_util.Cost
module Listx = Repro_util.Listx
module Gph = Repro_core.Gph
module Eden = Repro_core.Eden
module Skeletons = Repro_core.Skeletons
module Api = Repro_parrts.Rts.Api

(* The verification pass the paper's programs run at the end ("All
   versions of the program check the result using a second sequential
   computation, that is obvious at the end of each trace").  We model
   it as a sequential recomputation by a smarter algorithm costing a
   fixed fraction of the naive kernel — the visible tail phase of the
   paper's traces. *)
let check_fraction = 64

let check_cost n =
  Cost.make (Euler.total_cycles n / check_fraction) ~alloc:(8 * n)

let sequential_check n =
  Api.charge (check_cost n);
  Euler.sum_euler_ref n

(* Live data is tiny for this benchmark: input list + partial sums. *)
let resident n = (48 * n) + (1 lsl 20)

(** GpH version.  [chunks] controls the sublist count (default
    [4 * ncaps]); each sublist becomes one spark.  [split] selects the
    splitting variant (the paper: "the GpH program can apply several
    variants of splitting the input into sublists"); round-robin gives
    balanced sublists since the cost of [phi k] grows with [k]. *)
let gph ?chunks ?(split = `Round_robin) ~n () =
  Api.set_resident (resident n);
  (* default granularity: ~50 numbers per spark, at least 4 per cap *)
  let chunks =
    match chunks with
    | Some c -> c
    | None -> max (4 * Api.ncaps ()) (n / 50)
  in
  let input = List.init n (fun i -> i + 1) in
  let pieces =
    match split with
    | `Round_robin -> Listx.unshuffle chunks input
    | `Contiguous -> Listx.split_into_n chunks input
  in
  (* Lazy structure as in the Haskell program: [map phi] builds one
     thunk per element; the sparked chunk computations force (sum) a
     sublist of those shared element thunks.  Sharing at element grain
     is what keeps accidental duplicate evaluation cheap: a thread that
     re-enters a chunk under lazy black-holing re-traverses it but
     finds the elements already evaluated. *)
  let elems =
    List.map
      (fun piece ->
        List.map
          (fun k ->
            (k, Gph.thunk ~cost:(Euler.phi_cost k) (fun () -> Euler.phi_fast k)))
          piece)
      pieces
  in
  let fold_cycles piece = 50 * List.length piece in
  let nodes =
    List.map
      (fun piece ->
        Gph.thunk
          ~cost:(Cost.make (fold_cycles piece) ~alloc:(8 * List.length piece))
          (fun () ->
            List.fold_left (fun a (_, nd) -> a + Gph.force nd) 0 piece))
      elems
  in
  (* Spark in reverse order: the runtime distributes sparks oldest
     first, so workers traverse the chunk list from the far end while
     the main thread's consuming fold forces from the front — the two
     fronts meet once instead of lock-stepping over shared thunks (a
     standard GpH program tuning). *)
  Gph.par_list Gph.rwhnf (List.rev nodes);
  let result = List.fold_left (fun acc nd -> acc + Gph.force nd) 0 nodes in
  let check = sequential_check n in
  if result <> check then
    failwith
      (Printf.sprintf "sumEuler: parallel %d <> sequential %d" result check);
  result

(** Eden version: one process per PE computing its partial sum over a
    statically-dealt piece; the parent reduces.  [split] selects the
    static distribution: [`Round_robin] (Eden's [unshuffle], the farm
    default — near-balanced since the cost of [phi k] grows with [k])
    or [`Contiguous] ([splitIntoN] — the markedly "sub-optimal static
    load balance" variant). *)
let eden ?(split = `Round_robin) ~n () =
  let npes = Api.ncaps () in
  Api.set_resident_global (resident n);
  for pe = 0 to npes - 1 do
    Api.set_resident_of ~cap:pe (resident n / npes)
  done;
  let input = List.init n (fun i -> i + 1) in
  let pieces =
    match split with
    | `Round_robin -> Listx.unshuffle npes input
    | `Contiguous -> Listx.split_into_n npes input
  in
  let worker ks =
    Api.charge (Euler.chunk_cost ks);
    List.fold_left (fun a k -> a + Euler.phi_fast k) 0 ks
  in
  let partials =
    Eden.spawn ~tr_in:(Eden.t_list Eden.t_int) ~tr_out:Eden.t_int worker pieces
  in
  let result = List.fold_left ( + ) 0 partials in
  let check = sequential_check n in
  if result <> check then
    failwith
      (Printf.sprintf "sumEuler/eden: parallel %d <> sequential %d" result check);
  result

(** GUM version (paper Sec. III-B): the same GpH-shaped program on
    distributed heaps with FISH/SCHEDULE passive work distribution —
    the main PE sparks chunk packets, idle PEs fish for them. *)
let gum ?chunks ~n () =
  let module Gum = Repro_core.Gum in
  Gum.main (fun () ->
      let npes = Api.ncaps () in
      for pe = 0 to npes - 1 do
        Api.set_resident_of ~cap:pe (resident n / npes)
      done;
      let chunks = match chunks with Some c -> c | None -> max (4 * npes) (n / 50) in
      let input = List.init n (fun i -> i + 1) in
      let pieces = Listx.unshuffle chunks input in
      let result =
        Gum.par_chunk_sum ~chunk_cost:Euler.chunk_cost
          ~f:(fun ks -> List.fold_left (fun a k -> a + Euler.phi_fast k) 0 ks)
          pieces
      in
      let check = sequential_check n in
      if result <> check then
        failwith
          (Printf.sprintf "sumEuler/gum: parallel %d <> sequential %d" result
             check);
      result)
