(** Renderers for traces: ASCII timelines (EdenTV-style) and CSV.

    The ASCII timeline shows one row per capability; time flows left to
    right.  Each column covers [end_time / width] of virtual time and is
    drawn with the character of the state that dominated that bucket:
    ['#'] running, ['-'] runnable/waiting, ['!'] blocked, ['.'] idle,
    ['G'] in GC.  This is the textual analogue of the paper's Figs. 2
    and 4. *)

let legend =
  "legend: '#' running  '-' runnable/sync  '!' blocked  '.' idle  'G' gc"

(* For each capability row, pick per bucket the state with the largest
   time share inside that bucket. *)
let timeline_rows ?(width = 100) t =
  let end_time = max 1 (Trace.end_time t) in
  let segs = Trace.segments t in
  let bucket_ns = float_of_int end_time /. float_of_int width in
  Array.map
    (fun capsegs ->
      let buf = Bytes.make width '.' in
      for b = 0 to width - 1 do
        let b0 = float_of_int b *. bucket_ns in
        let b1 = b0 +. bucket_ns in
        (* accumulate time per state within [b0,b1) *)
        let acc = Hashtbl.create 8 in
        List.iter
          (fun (t0, t1, st) ->
            let lo = Float.max b0 (float_of_int t0)
            and hi = Float.min b1 (float_of_int t1) in
            if hi > lo then begin
              let cur = try Hashtbl.find acc st with Not_found -> 0.0 in
              Hashtbl.replace acc st (cur +. (hi -. lo))
            end)
          capsegs;
        let best = ref None in
        Hashtbl.iter
          (fun st time ->
            match !best with
            | None -> best := Some (st, time)
            | Some (_, best_t) -> if time > best_t then best := Some (st, time))
          acc;
        match !best with
        | Some (st, _) -> Bytes.set buf b (Trace.state_char st)
        | None -> ()
      done;
      Bytes.to_string buf)
    segs

let timeline ?(width = 100) ?title t =
  let rows = timeline_rows ~width t in
  let buf = Buffer.create 1024 in
  (match title with
  | Some s -> Buffer.add_string buf (s ^ "\n")
  | None -> ());
  let total_ms = float_of_int (Trace.end_time t) /. 1e6 in
  Buffer.add_string buf
    (Printf.sprintf "total: %.2f ms virtual, utilisation %.1f%%\n" total_ms
       (100.0 *. Trace.utilisation t));
  Array.iteri
    (fun cap row -> Buffer.add_string buf (Printf.sprintf "cap%2d |%s|\n" cap row))
    rows;
  Buffer.add_string buf (legend ^ "\n");
  Buffer.contents buf

(* Machine-readable transitions, one per line: time_ns,cap,state *)
let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time_ns,cap,state\n";
  List.iter
    (function
      | Trace.Transition { time; cap; state } ->
          Buffer.add_string buf
            (Printf.sprintf "%d,%d,%s\n" time cap (Trace.state_name state))
      | Trace.Marker { time; cap; label } ->
          Buffer.add_string buf (Printf.sprintf "%d,%d,marker:%s\n" time cap label))
    (Trace.entries t);
  Buffer.contents buf
