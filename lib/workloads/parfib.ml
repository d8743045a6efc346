(** parfib: the classic GpH fine-granularity stress test.

    {v
      parfib n t | n < t     = nfib n
                 | otherwise = x `par` (y `seq` x + y + 1)
                     where x = parfib (n-1) t; y = parfib (n-2) t
    v}

    Every call above the threshold [t] sparks its left branch — so the
    spark count grows exponentially as the threshold drops, which is
    exactly what exercises spark-pool overflow, activation overhead
    (thread-per-spark vs spark threads) and steal traffic.  The value
    computed is nfib (the call count), the traditional measure.

    Values are computed really (cheaply, by memoised recurrence); the
    charged cost models compiled naive nfib: ~[call_cycles] per call of
    the call tree.  The programs return their value unchecked: the
    caller compares it with {!reference}. *)

module Cost = Repro_util.Cost
module Gph = Repro_core.Gph
module Eden = Repro_core.Eden
module Skeletons = Repro_core.Skeletons
module Api = Repro_parrts.Rts.Api

let call_cycles = 35
let call_alloc = 16

(* nfib n = number of calls of naive fib n = 2*fib(n+1) - 1 *)
let nfib =
  let cache = Hashtbl.create 64 in
  let rec go n =
    if n < 2 then 1
    else
      match Hashtbl.find_opt cache n with
      | Some v -> v
      | None ->
          let v = 1 + go (n - 1) + go (n - 2) in
          Hashtbl.add cache n v;
          v
  in
  go

(* Cost of evaluating naive nfib [n] sequentially. *)
let seq_cost n =
  let calls = nfib n in
  Cost.make (calls * call_cycles) ~alloc:(calls * call_alloc)

(** Sequential reference (the value parfib must compute). *)
let reference n = nfib n

(** GpH parfib: sparks the left branch above the threshold. *)
let gph ~n ~threshold () =
  if threshold < 1 then invalid_arg "Parfib.gph: threshold must be >= 1";
  let rec node n : int Gph.t =
    (* the division identity nfib n = nfib(n-1) + nfib(n-2) + 1 only
       holds for n >= 2: tiny arguments always go sequential *)
    if n < threshold || n < 2 then
      Gph.thunk ~cost:(seq_cost n) (fun () -> nfib n)
    else
      (* the division node itself costs one call *)
      Gph.thunk ~cost:(Cost.make call_cycles ~alloc:call_alloc) (fun () ->
          let x = node (n - 1) in
          let y = node (n - 2) in
          Gph.par x;
          let yv = Gph.force y in
          let xv = Gph.force x in
          xv + yv + 1)
  in
  Gph.force (node n)

(** Eden parfib: unfold the call tree to a fixed depth, farm the
    sub-trees out as processes, combine at the parent (the usual Eden
    divide-and-conquer translation). *)
let eden ~n ~depth () =
  if depth < 0 then invalid_arg "Parfib.eden: depth must be >= 0";
  if n - (2 * depth) < 2 then
    invalid_arg "Parfib.eden: depth too deep for n (division below nfib 2)";
  (* enumerate sub-problems at [depth]: the multiset of (n - a - 2b)
     leaves of the division tree, plus the division-node count *)
  let rec leaves n d acc = if d = 0 then n :: acc else leaves (n - 1) (d - 1) (leaves (n - 2) (d - 1) acc) in
  let subs = leaves n depth [] in
  let division_nodes = (1 lsl depth) - 1 in
  let worker k =
    Api.charge (seq_cost k);
    nfib k
  in
  let partials =
    Skeletons.par_map_farm ~tr_in:Eden.t_int ~tr_out:Eden.t_int worker subs
  in
  List.fold_left ( + ) 0 partials + division_nodes
