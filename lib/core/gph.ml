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
module Config = Repro_parrts.Config
module Api = Repro_parrts.Rts.Api

type 'a t = 'a Node.t
(** A lazy value in the simulated shared heap. *)

(** [thunk ~cost f] suspends [f]; forcing it charges [cost] and then
    runs [f] (which may itself force further thunks, charging more).
    Creating the thunk charges its own heap allocation.

    With [~forces_only:true], a duplicate whose charge ends after the
    node was updated returns the installed value instead of running
    [f]: the update means [f] ran to the end once, so every force in
    it would only read a value.  Only opted-in thunks keep a reference
    to their own node, so the others cost nothing more. *)
let thunk ?(size = 24) ?(forces_only = false) ~cost f =
  Api.charge (Cost.alloc size);
  let reg = Api.registry () in
  if not forces_only then
    Node.thunk ~size reg (fun () ->
        Api.charge cost;
        f ())
  else begin
    let self = ref None in
    let node =
      Node.thunk ~size reg (fun () ->
          Api.charge cost;
          match Option.bind !self Node.peek with Some v -> v | None -> f ())
    in
    self := Some node;
    node
  end

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
