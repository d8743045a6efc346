(** List helpers shared by skeletons and workloads. *)

(** [chunk ~size xs]: contiguous pieces of at most [size] elements. *)
let chunk ~size xs =
  if size <= 0 then invalid_arg "Listx.chunk: size must be positive";
  let rec take k l acc =
    if k = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: tl -> take (k - 1) tl (x :: acc)
  in
  let rec go rest acc =
    match rest with
    | [] -> List.rev acc
    | _ ->
        let piece, rest' = take size rest [] in
        go rest' (piece :: acc)
  in
  go xs []

(** [split_into_n n xs]: [n] contiguous pieces of near-equal length
    (Eden's [splitIntoN]).  Produces exactly [n] pieces; trailing pieces
    may be empty when [length xs < n]. *)
let split_into_n n xs =
  if n <= 0 then invalid_arg "Listx.split_into_n: n must be positive";
  let len = List.length xs in
  let base = len / n and extra = len mod n in
  let rec take k l acc =
    if k = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: tl -> take (k - 1) tl (x :: acc)
  in
  let rec go i rest acc =
    if i = n then List.rev acc
    else
      let sz = base + if i < extra then 1 else 0 in
      let piece, rest' = take sz rest [] in
      go (i + 1) rest' (piece :: acc)
  in
  go 0 xs []

(** [unshuffle n xs]: [n] pieces by round-robin dealing (Eden's
    [unshuffle]); inverse of {!shuffle}. *)
let unshuffle n xs =
  if n <= 0 then invalid_arg "Listx.unshuffle: n must be positive";
  let buckets = Array.make n [] in
  List.iteri (fun i x -> buckets.(i mod n) <- x :: buckets.(i mod n)) xs;
  Array.to_list (Array.map List.rev buckets)

(** [shuffle pieces]: interleave round-robin-dealt pieces back into one
    list; inverse of {!unshuffle}. *)
let shuffle pieces =
  let arrs = List.map Array.of_list pieces in
  let maxlen = List.fold_left (fun m a -> max m (Array.length a)) 0 arrs in
  let out = ref [] in
  for i = maxlen - 1 downto 0 do
    List.iter (fun a -> if i < Array.length a then out := a.(i) :: !out) (List.rev arrs)
  done;
  !out

let transpose rows =
  let rec go rows =
    if List.for_all (( = ) []) rows then []
    else
      let heads = List.filter_map (function [] -> None | x :: _ -> Some x) rows in
      let tails = List.map (function [] -> [] | _ :: t -> t) rows in
      heads :: go tails
  in
  go rows

(** Group an association list by key, preserving first-seen key order
    and per-key value order. *)
let group_by_key pairs =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | None ->
          Hashtbl.add tbl k (ref [ v ]);
          order := k :: !order
      | Some r -> r := v :: !r)
    pairs;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order
