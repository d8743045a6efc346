(** SVG renderer for traces: per-capability activity bars over time,
    using the EdenTV colour scheme the paper's Figs. 2 and 4 use
    (green = running, yellow = runnable/sync, red = blocked,
    blue-grey = idle, purple = GC).

    Produces a self-contained SVG document; the CLI writes it next to
    the ASCII timeline so traces can be inspected graphically. *)

let colour = function
  | Trace.Running -> "#2e8b57"
  | Trace.Runnable -> "#e6c229"
  | Trace.Blocked -> "#c0392b"
  | Trace.Idle -> "#bdc9d6"
  | Trace.Gc -> "#7d3c98"

let xml_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Bar height per capability, pixels. *)
let row_height = 22

(** Render [t] as an SVG document.  [width] is the drawing width in
    pixels for the time axis; each capability gets a [row_height]px
    bar. *)
let render ?(width = 960) ?title (t : Trace.t) =
  let caps = Trace.caps t in
  let end_time = max 1 (Trace.end_time t) in
  let left = 52 and top = 28 in
  let legend_h = 26 in
  let total_w = left + width + 16 in
  let total_h = top + (caps * (row_height + 4)) + legend_h + 30 in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        viewBox=\"0 0 %d %d\" font-family=\"sans-serif\" font-size=\"11\">\n"
       total_w total_h total_w total_h);
  Buffer.add_string buf
    (Printf.sprintf
       "<rect x=\"0\" y=\"0\" width=\"%d\" height=\"%d\" fill=\"white\"/>\n"
       total_w total_h);
  (match title with
  | Some s ->
      Buffer.add_string buf
        (Printf.sprintf
           "<text x=\"%d\" y=\"16\" font-size=\"13\" font-weight=\"bold\">%s \
            (%.2f ms virtual, %.1f%% utilisation)</text>\n"
           left (xml_escape s)
           (float_of_int end_time /. 1e6)
           (100.0 *. Trace.utilisation t))
  | None -> ());
  let x_of time = left + (time * width / end_time) in
  let segs = Trace.segments t in
  Array.iteri
    (fun cap capsegs ->
      let y = top + (cap * (row_height + 4)) in
      Buffer.add_string buf
        (Printf.sprintf
           "<text x=\"4\" y=\"%d\" fill=\"#333\">cap %d</text>\n"
           (y + (row_height / 2) + 4)
           cap);
      List.iter
        (fun (t0, t1, st) ->
          let x0 = x_of t0 and x1 = x_of t1 in
          if x1 > x0 then
            Buffer.add_string buf
              (Printf.sprintf
                 "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
                  fill=\"%s\"><title>%s: %.3f–%.3f ms</title></rect>\n"
                 x0 y (max 1 (x1 - x0)) row_height (colour st)
                 (Trace.state_name st)
                 (float_of_int t0 /. 1e6)
                 (float_of_int t1 /. 1e6)))
        capsegs)
    segs;
  (* time axis *)
  let axis_y = top + (caps * (row_height + 4)) + 4 in
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#555\"/>\n" left
       axis_y (left + width) axis_y);
  for tick = 0 to 4 do
    let time = end_time * tick / 4 in
    let x = x_of time in
    Buffer.add_string buf
      (Printf.sprintf
         "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#555\"/>\n\
          <text x=\"%d\" y=\"%d\" text-anchor=\"middle\" fill=\"#333\">%.1f \
          ms</text>\n"
         x axis_y x (axis_y + 4) x (axis_y + 16)
         (float_of_int time /. 1e6))
  done;
  (* legend *)
  let legend_y = axis_y + 24 in
  let lx = ref left in
  List.iter
    (fun st ->
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%d\" y=\"%d\" width=\"12\" height=\"12\" fill=\"%s\"/>\n\
            <text x=\"%d\" y=\"%d\" fill=\"#333\">%s</text>\n"
           !lx legend_y (colour st) (!lx + 16) (legend_y + 10)
           (Trace.state_name st));
      lx := !lx + 100)
    Trace.all_states;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let to_file ?width ?title t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render ?width ?title t))
