(** Glasgow parallel Haskell (GpH): [par], [seq] and evaluation
    strategies, on the shared-heap runtime.

    GpH programs annotate ordinary (lazy) expressions with [par] to
    record {e sparks} — closures the runtime {e may} evaluate in
    parallel — and drive evaluation degree with strategies
    (Trinder et al., "Algorithm + Strategy = Parallelism").

    Lazy values are reified as {!Repro_heap.Node} thunks carrying an
    explicit cost; real OCaml values are computed, virtual time is
    charged.  [force] implements GHC's thunk-entry protocol, including
    the lazy/eager black-holing distinction of the paper's
    Sec. IV-A.3. *)

module Node = Repro_heap.Node
module Cost = Repro_util.Cost
module Rts = Repro_parrts.Rts
module Config = Repro_parrts.Config
module Api = Repro_parrts.Rts.Api

type 'a t = 'a Node.t
(** A lazy value in the simulated shared heap. *)

(** [thunk ~cost f] suspends [f]; forcing it charges [cost] and then
    runs [f] (which may itself force further thunks, charging more).
    Creating the thunk charges its own heap allocation. *)
let thunk ?(size = 24) ~cost f =
  Api.charge (Cost.alloc size);
  Node.thunk ~size (Api.registry ()) (fun () ->
      Api.charge cost;
      f ())

(** An already-evaluated value (no work to force). *)
let return ?(size = 24) v = Node.value ~size (Api.registry ()) v

(** Force a lazy value to weak head normal form, with full GHC entry
    semantics: value hit, evaluation (with update), duplicate lazy
    entry, or blocking on a black hole. *)
let rec force (n : 'a t) : 'a =
  let eager =
    match Api.blackholing () with
    | Config.Eager_bh -> true
    | Config.Lazy_bh -> false
  in
  match Node.enter ~eager n with
  | Node.Ready v -> v
  | Node.Evaluate f ->
      Api.push_update (Node.Boxed n);
      let v = f () in
      Api.pop_update ();
      ignore (Node.update n v);
      v
  | Node.Wait ->
      Api.block (fun wake -> Node.add_waiter n wake);
      force n

(** [par n] records a spark for [n] (Haskell: [n `par` ...]).  The
    spark fizzles if [n] is already evaluated when activated. *)
let par (n : 'a t) =
  Api.spark
    ~still_needed:(fun () -> not (Node.is_value n))
    (fun () -> ignore (force n))

(** [seq n] forces [n] now (Haskell's [seq] used for sequential
    ordering). *)
let seq (n : 'a t) = ignore (force n)

(* ------------------------------------------------------------------ *)
(* Evaluation strategies                                               *)
(* ------------------------------------------------------------------ *)

type 'a strategy = 'a -> unit
(** A strategy evaluates (part of) its argument for effect.  Strategies
    here act on lazy cells and containers of lazy cells. *)

(** No evaluation at all (Haskell's [r0]). *)
let r0 : 'a strategy = fun _ -> ()

(** Reduce to weak head normal form. *)
let rwhnf : 'a t strategy = fun n -> ignore (force n)

(** Reduce to normal form.  For a single cell WHNF = NF in this model
    (element payloads are strict OCaml values). *)
let rnf : 'a t strategy = rwhnf

(** Spark every element of the list for parallel evaluation with [s]
    (Haskell: [parList]). *)
let par_list (s : 'a t strategy) (xs : 'a t list) : unit =
  List.iter
    (fun n ->
      Api.spark
        ~still_needed:(fun () -> not (Node.is_value n))
        (fun () -> s n))
    xs

(** [using x s] applies strategy [s] to [x] and returns [x]
    (Haskell's [`using`]). *)
let using x (s : 'a strategy) =
  s x;
  x

(** Chunked data parallelism: split [xs] into [chunks] pieces, build a
    thunk computing [f] over each piece (costed by [cost]), spark them
    all, and combine with [combine] (forcing in order).  This is the
    [parListChunk]/[splitIntoN] pattern the paper's GpH sumEuler uses. *)
let par_chunks ~chunks ~(cost : 'a list -> Cost.t) ~(f : 'a list -> 'b)
    ~(combine : 'b list -> 'c) (xs : 'a list) : 'c =
  if chunks <= 0 then invalid_arg "Gph.par_chunks: chunks must be positive";
  let n = List.length xs in
  let size = max 1 ((n + chunks - 1) / chunks) in
  let rec split acc rest =
    match rest with
    | [] -> List.rev acc
    | _ ->
        let rec take k l acc2 =
          if k = 0 then (List.rev acc2, l)
          else
            match l with
            | [] -> (List.rev acc2, [])
            | x :: tl -> take (k - 1) tl (x :: acc2)
        in
        let chunk, rest' = take size rest [] in
        split (chunk :: acc) rest'
  in
  let pieces = split [] xs in
  let nodes = List.map (fun piece -> thunk ~cost:(cost piece) (fun () -> f piece)) pieces in
  par_list rwhnf nodes;
  combine (List.map force nodes)

(** Parallel map via one spark per element (Haskell's [parMap rnf f]). *)
let par_map ~(cost : 'a -> Cost.t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let nodes = List.map (fun x -> thunk ~cost:(cost x) (fun () -> f x)) xs in
  par_list rwhnf nodes;
  List.map force nodes

(** Divide and conquer with sparked sub-trees: problems are divided
    down to [is_trivial], sparking all but the last sub-problem at
    every level while [depth] allows (the standard GpH [parDivConq]
    pattern, of which parfib is the special case). *)
let div_conquer ~depth ~(divide : 'p -> 'p list) ~(is_trivial : 'p -> bool)
    ~(solve_cost : 'p -> Cost.t) ~(solve : 'p -> 's)
    ~(combine : 'p -> 's list -> 's) (problem : 'p) : 's =
  let rec local p =
    if is_trivial p then solve p else combine p (List.map local (divide p))
  in
  let rec node depth p : 's t =
    if depth <= 0 || is_trivial p then thunk ~cost:(solve_cost p) (fun () -> local p)
    else
      thunk ~cost:(Cost.make 120 ~alloc:64) (fun () ->
          let children = List.map (node (depth - 1)) (divide p) in
          (* spark all but the last; evaluate the last in-line *)
          (match List.rev children with
          | _last :: sparked_rev -> List.iter par (List.rev sparked_rev)
          | [] -> ());
          combine p (List.map force children))
  in
  force (node depth problem)
