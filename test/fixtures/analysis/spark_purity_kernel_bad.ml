(* seeded violation: the closure calls a local helper whose only write
   is a library kernel that relaxes captured rows in place *)
let step d pivot k lo hi =
  for i = lo to hi do
    Apsp.relax d.(i) ~k pivot
  done

let run d k =
  Strategies.par_range 0 7 (fun lo hi -> step d d.(k) k lo hi)
