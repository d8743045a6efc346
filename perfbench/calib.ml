(** The calibration loop: a fixed computation owned by the benchmark
    that calls nothing in the repository's libraries, so no change to
    them can move it.  The suite times it at every pass boundary and
    divides each job's time by it, which cancels the machine's speed
    of the moment: on a shared host that speed drifts by tens of
    percent within minutes, far more than the bounds.  About 20 ms:
    integer compute like sumeuler's, then float streaming over a
    matrix larger than L1 like apsp's and matmul's.  It allocates
    almost nothing, because allocation-heavy loops time too noisily to
    serve as a reference. *)

let totients () =
  let phi n =
    let rec go n p acc =
      if p * p > n then if n > 1 then acc / n * (n - 1) else acc
      else if n mod p = 0 then
        let rec strip n = if n mod p = 0 then strip (n / p) else n in
        go (strip n) (p + 1) (acc / p * (p - 1))
      else go n (p + 1) acc
    in
    go n 2 n
  in
  let s = ref 0 in
  for k = 1 to 40_000 do
    s := !s + phi k
  done;
  !s

let shortest_paths () =
  let n = 160 in
  let d =
    Array.init n (fun i ->
        Array.init n (fun j -> float_of_int ((((i * 7) + (j * 13)) mod 97) + 1)))
  in
  for k = 0 to n - 1 do
    let dk = d.(k) in
    for i = 0 to n - 1 do
      let di = d.(i) in
      let dik = di.(k) in
      for j = 0 to n - 1 do
        let v = dik +. dk.(j) in
        if v < di.(j) then di.(j) <- v
      done
    done
  done;
  int_of_float d.(n - 1).(0)

let once () =
  snd (Timing.time_ns (fun () -> Sys.opaque_identity (totients () + shortest_paths ())))

(** The loop run on [cores] domains at once (1 or 2), in nanoseconds
    (mean over them).  A job that keeps both cores busy is measured
    against both, since a neighbour often slows only one; a sequential
    job is measured against one, like itself. *)
let time_ns ~cores =
  if cores = 1 then once ()
  else
    let other = Domain.spawn once in
    let mine = once () in
    (mine + Domain.join other) / 2
