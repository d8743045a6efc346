(** Minimal JSON emitter (no dependencies, output only).

    Writes every machine-readable document the tools produce: the
    [repro/measure/v1] rows of [repro_cli exec|dist --json], metrics
    snapshots, Chrome traces, analyzer reports and perfbench's
    results.  Covers exactly the JSON
    we produce: null/bool/int/float/string plus arrays and objects.
    Floats that have no JSON representation (nan, infinities) are
    emitted as [null] so the output always parses. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_float b f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> Buffer.add_string b "null"
  | _ ->
      let s = Printf.sprintf "%.17g" f in
      (* shortest round-trip representation when it suffices *)
      let short = Printf.sprintf "%.12g" f in
      Buffer.add_string b (if float_of_string short = f then short else s)

let rec add b ~indent ~level v =
  let pad n = Buffer.add_string b (String.make (n * indent) ' ') in
  let newline () = if indent > 0 then Buffer.add_char b '\n' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | Str s -> escape_string b s
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
      Buffer.add_char b '[';
      newline ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char b ',';
            newline ()
          end;
          pad (level + 1);
          add b ~indent ~level:(level + 1) x)
        xs;
      newline ();
      pad level;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      Buffer.add_char b '{';
      newline ();
      List.iteri
        (fun i (k, x) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            newline ()
          end;
          pad (level + 1);
          escape_string b k;
          Buffer.add_string b (if indent > 0 then ": " else ":");
          add b ~indent ~level:(level + 1) x)
        fields;
      newline ();
      pad level;
      Buffer.add_char b '}'

let to_string ?(indent = 2) v =
  let b = Buffer.create 1024 in
  add b ~indent ~level:0 v;
  Buffer.contents b

let to_file ?indent path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string ?indent v);
      output_char oc '\n')
