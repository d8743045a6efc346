(** The suite's one timing helper: a monotonic clock, a stopwatch and
    the order statistics every metric is reported with. *)

let now_ns = Repro_dist.Clock.now_ns

(** [time_ns f] runs [f] and returns its result with the elapsed
    monotonic nanoseconds. *)
let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(** [q]-quantile of [xs] ([0 < q < 1]) by the method Python's
    [statistics.quantiles] uses by default ("exclusive": position
    [q * (n + 1)], linear interpolation, clamped to the sample ends),
    so a spread computed here matches one computed from the printed
    values.  [nan] on no samples. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = Float.min (Float.max (q *. float_of_int (n + 1)) 1.0) (float_of_int n) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i >= n then a.(n - 1) else a.(i - 1) +. (frac *. (a.(i) -. a.(i - 1)))

let median xs = quantile xs 0.5

(** Interquartile range: third minus first quartile. *)
let iqr xs = quantile xs 0.75 -. quantile xs 0.25
