(** GpH-style evaluation strategies over real domains.

    The user-facing combinators mirror [Repro_core.Gph]'s simulated
    ones ([par]/[pseq]/[parList]/chunking), but here [par] really does
    put a spark where another core can steal it.  All combinators are
    no-ops degrading to left-to-right sequential evaluation when run
    outside a {!Pool} (sparks fizzle), so workload code is oblivious
    to the core count. *)

(** [par f g]: spark [f], evaluate [g] here, then demand [f]'s value
    (evaluating it in place if no worker picked it up). *)
let par f g =
  let fa = Future.spark f in
  let b = g () in
  let a = Future.force fa in
  (a, b)

(** Sequential composition: evaluate [f], then [g] on its result. *)
let pseq f g =
  let a = f () in
  g a

(** [par_list fs]: spark every element, then collect in order.  The
    list is sparked in reverse so thieves (stealing FIFO from the top
    of the deque) start from the far end while the owner forces from
    the front — the two fronts meet once, the same tuning the
    simulated sumEuler applies. *)
let par_list fs =
  let futs = List.rev (List.map Future.spark (List.rev fs)) in
  List.map Future.force futs

(** [par_map f xs]: [par_list] over [List.map]. *)
let par_map f xs = par_list (List.map (fun x () -> f x) xs)

(** [par_range ~chunks lo hi f ~combine ~init]: fold [combine] over
    [f lo' hi'] evaluated on contiguous index sub-ranges in parallel.
    Index-based: one future per sub-range, held in one array, so
    nothing is allocated per index.  Sub-ranges are sparked far end
    first, as in [par_list], and combined left to right. *)
let par_range ~chunks lo hi f ~combine ~init =
  if hi < lo then init
  else begin
    let count = hi - lo + 1 in
    let chunks = max 1 (min chunks count) in
    let per = count / chunks and rem = count mod chunks in
    (* the first [rem] sub-ranges get one extra index *)
    let start i = lo + (i * per) + min i rem in
    let spark i =
      let a = start i and b = start (i + 1) - 1 in
      Future.spark (fun () -> f a b)
    in
    (* the far end is sparked first and fills the array until the
       loop below replaces the other slots *)
    let futs = Array.make chunks (spark (chunks - 1)) in
    for i = chunks - 2 downto 0 do
      futs.(i) <- spark i
    done;
    let acc = ref init in
    for i = 0 to chunks - 1 do
      acc := combine !acc (Future.force futs.(i))
    done;
    !acc
  end

(** Number of workers available to the current computation (1 when
    outside a pool) — for granularity decisions. *)
let available_cores () =
  match Pool.current () with
  | Some ctx -> Pool.cores (Pool.ctx_pool ctx)
  | None -> 1

(** Default spark count for a list of [n] independent pieces: enough
    chunks to balance (4 per core), capped by [n]. *)
let default_chunks n = max 1 (min n (4 * available_cores ()))
