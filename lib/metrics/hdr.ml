let default_sub_bits = 5

(* Position of the highest set bit of [v > 0].  Branchy binary search:
   six comparisons, no allocation (the stdlib exposes no clz). *)
let msb v =
  let n = if v lsr 32 <> 0 then 32 else 0 in
  let v = v lsr n in
  let k = if v lsr 16 <> 0 then 16 else 0 in
  let n = n + k and v = v lsr k in
  let k = if v lsr 8 <> 0 then 8 else 0 in
  let n = n + k and v = v lsr k in
  let k = if v lsr 4 <> 0 then 4 else 0 in
  let n = n + k and v = v lsr k in
  let k = if v lsr 2 <> 0 then 2 else 0 in
  let n = n + k and v = v lsr k in
  if v lsr 1 <> 0 then n + 1 else n

let nbuckets ~sub_bits = (63 - sub_bits) lsl sub_bits

let index_of ~sub_bits v =
  if v <= 0 then 0
  else
    let sub = 1 lsl sub_bits in
    if v < sub then v
    else
      (* [b >= 1] power-of-two bucket, [2^sub_bits] linear sub-buckets
         inside it: the bucket keeps the top [sub_bits + 1] significant
         bits of [v], so its width is [2^(b-1) <= v / 2^sub_bits]. *)
      let b = msb v - sub_bits + 1 in
      (b lsl sub_bits) + (v lsr (b - 1)) - sub

let lower_bound ~sub_bits i =
  let sub = 1 lsl sub_bits in
  if i < sub then i
  else
    let b = i lsr sub_bits and r = i land (sub - 1) in
    (sub + r) lsl (b - 1)

let upper_bound ~sub_bits i =
  let sub = 1 lsl sub_bits in
  if i < sub then i
  else
    let b = i lsr sub_bits and r = i land (sub - 1) in
    ((sub + r + 1) lsl (b - 1)) - 1

let midpoint ~sub_bits i =
  (float_of_int (lower_bound ~sub_bits i) +. float_of_int (upper_bound ~sub_bits i))
  /. 2.

type snapshot = {
  sub_bits : int;
  buckets : (int * int) list;
  count : int;
  sum : int;
  min_v : int;
  max_v : int;
}

let empty ?(sub_bits = default_sub_bits) () =
  { sub_bits; buckets = []; count = 0; sum = 0; min_v = max_int; max_v = min_int }

let merge a b =
  if a.sub_bits <> b.sub_bits then invalid_arg "Hdr.merge: sub_bits mismatch";
  let rec go xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | (i, n) :: xt, (j, m) :: yt ->
        if i < j then (i, n) :: go xt ys
        else if j < i then (j, m) :: go xs yt
        else (i, n + m) :: go xt yt
  in
  {
    sub_bits = a.sub_bits;
    buckets = go a.buckets b.buckets;
    count = a.count + b.count;
    sum = a.sum + b.sum;
    min_v = min a.min_v b.min_v;
    max_v = max a.max_v b.max_v;
  }

let quantile s q =
  if s.count = 0 then 0.
  else
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int s.count))) in
    let rec go cum = function
      | [] -> float_of_int s.max_v
      | (i, n) :: rest ->
          if cum + n >= rank then midpoint ~sub_bits:s.sub_bits i
          else go (cum + n) rest
    in
    (* Clamping to the observed extremes only tightens the estimate. *)
    Float.max (float_of_int s.min_v) (Float.min (float_of_int s.max_v) (go 0 s.buckets))

let mean s = if s.count = 0 then 0. else float_of_int s.sum /. float_of_int s.count

module Json = Repro_util.Json_out

let to_json s =
  Json.Obj
    [
      ("sub_bits", Json.Int s.sub_bits);
      ("count", Json.Int s.count);
      ("sum", Json.Int s.sum);
      (* Sentinels of an empty histogram exceed JSON integer precision;
         serialise zeros. *)
      ("min", Json.Int (if s.count = 0 then 0 else s.min_v));
      ("max", Json.Int (if s.count = 0 then 0 else s.max_v));
      ( "buckets",
        Json.List
          (List.map (fun (i, n) -> Json.List [ Json.Int i; Json.Int n ]) s.buckets) );
    ]

module Local = struct
  type t = {
    sub_bits : int;
    cells : int array;
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
  }

  let create ?(sub_bits = default_sub_bits) () =
    {
      sub_bits;
      cells = Array.make (nbuckets ~sub_bits) 0;
      count = 0;
      sum = 0;
      min_v = max_int;
      max_v = min_int;
    }

  let observe t v =
    let v = if v < 0 then 0 else v in
    let i = index_of ~sub_bits:t.sub_bits v in
    t.cells.(i) <- t.cells.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let snapshot t =
    let buckets = ref [] in
    for i = Array.length t.cells - 1 downto 0 do
      if t.cells.(i) <> 0 then buckets := (i, t.cells.(i)) :: !buckets
    done;
    {
      sub_bits = t.sub_bits;
      buckets = !buckets;
      count = t.count;
      sum = t.sum;
      min_v = t.min_v;
      max_v = t.max_v;
    }
end
