(** [--compare A.json B.json]: the regression gate.  Each file holds
    the run records [--out] appended (any number of seeds and
    workloads).  For every workload and end-to-end metric named in
    BENCHMARK.json it prints both sides' medians over their untraced
    runs, their IQRs as a share of the median, the ratio B/A and a
    verdict against the metric's bound: [better] or [worse] when the
    medians differ by more than the bound, [within] otherwise, and
    [unresolved] when either side's IQR is wider than the bound (unless
    every B run beats every A run).  Deterministic counts recorded for
    the same workload and seed on both sides must be equal.  Exit code
    0 when nothing is worse, unresolved or unequal, 1 otherwise. *)

module Jin = Repro_util.Json_in

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_argument s)) fmt

let member key j =
  match Jin.member key j with Some v -> v | None -> fail "missing field %S" key

let str j = match Jin.to_string j with Some s -> s | None -> fail "expected a string"
let num j = match Jin.to_float j with Some f -> f | None -> fail "expected a number"
let items j = match Jin.to_list j with Some l -> l | None -> fail "expected a list"

type bound = { name : string; lower_is_better : bool; bound : float }

let bounds_of_benchmark path =
  List.map
    (fun m ->
      {
        name = str (member "name" m);
        lower_is_better = str (member "better" m) = "lower";
        bound = num (member "bound" m);
      })
    (items (member "end_to_end" (Jin.of_file path)))

let fields = function Repro_util.Json_out.Obj kv -> kv | _ -> fail "expected an object"

(* (workload, seed, trace, metric values, exact counts) per record *)
let load path =
  List.map
    (fun r ->
      ( str (member "workload" r),
        int_of_float (num (member "seed" r)),
        Jin.to_int (member "trace" r) = Some 1,
        List.map (fun (k, m) -> (k, num (member "value" m))) (fields (member "metrics" r)),
        List.map (fun (k, v) -> (k, int_of_float (num v))) (fields (member "exact" r)) ))
    (items (Jin.of_file path))

let verdict b ~a ~b:bs =
  let ma = Timing.median a and mb = Timing.median bs in
  let spread xs m = Timing.iqr xs /. m in
  let worse_by = if b.lower_is_better then (mb -. ma) /. ma else (ma -. mb) /. ma in
  let beats x y = if b.lower_is_better then x < y else x > y in
  if spread a ma > b.bound || spread bs mb > b.bound then
    if List.for_all (fun y -> List.for_all (fun x -> beats y x) a) bs then "better"
    else "unresolved"
  else if worse_by > b.bound then "worse"
  else if worse_by < -.b.bound then "better"
  else "within"

let run ~benchmark path_a path_b =
  let bounds = bounds_of_benchmark benchmark in
  let a = load path_a and b = load path_b in
  let workloads =
    List.sort_uniq compare (List.map (fun (w, _, _, _, _) -> w) (a @ b))
  in
  let values runs w name =
    List.filter_map
      (fun (w', _, trace, ms, _) -> if w' = w && not trace then List.assoc_opt name ms else None)
      runs
  in
  let bad = ref 0 and unequal = ref 0 in
  Printf.printf "%-10s %-18s %12s %7s %12s %7s %7s  %s\n" "workload" "metric" "median A"
    "iqr A" "median B" "iqr B" "B/A" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun bd ->
          match (values a w bd.name, values b w bd.name) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let ma = Timing.median va and mb = Timing.median vb in
              let v = verdict bd ~a:va ~b:vb in
              if v = "worse" || v = "unresolved" then incr bad;
              Printf.printf "%-10s %-18s %12.6g %6.1f%% %12.6g %6.1f%% %7.3f  %s\n" w bd.name
                ma (100.0 *. Timing.iqr va /. ma) mb (100.0 *. Timing.iqr vb /. mb)
                (mb /. ma) v)
        bounds)
    workloads;
  let checked = ref 0 in
  List.iter
    (fun (w, seed, _, _, ea) ->
      List.iter
        (fun (w', seed', _, _, eb) ->
          if w = w' && seed = seed' then
            List.iter
              (fun (k, va) ->
                match List.assoc_opt k eb with
                | Some vb ->
                    incr checked;
                    if vb <> va then begin
                      incr unequal;
                      Printf.printf "%s seed %d: %s differs, %d vs %d\n" w seed k va vb
                    end
                | None -> ())
              ea)
        b)
    a;
  Printf.printf "%d metrics worse or unresolved; %d deterministic counts compared, %d unequal\n"
    !bad !checked !unequal;
  if !bad + !unequal = 0 then 0 else 1
