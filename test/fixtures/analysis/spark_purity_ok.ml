(* clean: the closure only mutates a ref it allocates itself, and its
   raise is wrapped in a handler *)
let run xs =
  let fut =
    Future.spark (fun () ->
        let acc = ref 0 in
        List.iter (fun x -> acc := !acc + x) xs;
        try !acc + int_of_string "3" with Failure _ -> !acc)
  in
  let a, b = Strategies.par (fun () -> 1 + 2) (fun () -> 3) in
  a + b + Future.force fut

(* clean: the closure relaxes a row it copied itself *)
let relaxed d pivot k i =
  Future.spark (fun () ->
      let row = Array.copy d.(i) in
      Apsp.relax row ~k pivot;
      row)
