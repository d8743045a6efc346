(** Minimal ASCII table rendering for experiment reports.

    Produces aligned, boxed tables in the style of the paper's Fig. 1 so
    that the figure commands print rows that visually correspond to
    the published tables. *)

type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ?(aligns = []) headers =
  let aligns =
    if aligns = [] then List.map (fun _ -> Left) headers else aligns
  in
  if List.length aligns <> List.length headers then
    invalid_arg "Tablefmt.create: aligns/headers length mismatch";
  { headers; aligns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Tablefmt.add_row: wrong number of columns";
  t.rows <- row :: t.rows

let rows t = List.rev t.rows

let widths t =
  let all = t.headers :: rows t in
  List.mapi
    (fun i _ ->
      List.fold_left
        (fun acc row -> max acc (String.length (List.nth row i)))
        0 all)
    t.headers

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let render_row widths aligns row =
  let cells = List.map2 (fun (w, a) s -> pad a w s)
      (List.combine widths aligns) row in
  "| " ^ String.concat " | " cells ^ " |"

let separator widths =
  "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"

let to_string t =
  let widths = widths t in
  let sep = separator widths in
  let buf = Buffer.create 256 in
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row widths t.aligns t.headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row widths t.aligns row);
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let print t = print_string (to_string t)
