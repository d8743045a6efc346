(** List helpers shared by skeletons and workloads. *)

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
