(** A single static-analysis diagnostic.

    Findings are what {!Rules} produce and what {!Engine} aggregates,
    baselines, and renders (text, JSON, SARIF).  Paths are stored in
    normalised form ([lib/exec/pool.ml], no [./] or [../] prefix) so a
    finding reported by the dune [@lint] rule (which runs from
    [_build/default/tools] against [../lib]) and one reported by
    [tools/repro_lint.exe] run from the project root against [lib]
    compare equal — the suppression baseline depends on this. *)

type severity = Error | Warning

let severity_to_string = function Error -> "error" | Warning -> "warning"

type t = {
  rule : string;  (** stable rule id, e.g. ["spark-purity"] *)
  severity : severity;
  file : string;  (** normalised, '/'-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler convention *)
  line_hash : string;
      (** content hash of the (trimmed) source line the finding sits
          on — the stable part of the baseline key, so an entry
          survives the line shifting up or down the file.  [""] until
          {!Engine} fills it in. *)
  message : string;
  hint : string;  (** how to fix or silence the finding *)
}

(** The digest baselines key on: the trimmed text of the source line.
    Leading/trailing whitespace is stripped so re-indentation does not
    churn the baseline; 12 hex chars keep collisions far below the
    per-(rule,file) namespace they live in. *)
let hash_line_text text = String.sub (Digest.to_hex (Digest.string (String.trim text))) 0 12

(** Drop leading [./] and [../] segments and collapse backslashes so
    the same file yields the same path no matter which directory the
    analyzer was launched from. *)
let normalize_path path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  let segs = String.split_on_char '/' path in
  let rec strip = function
    | ("." | ".." | "") :: rest -> strip rest
    | rest -> rest
  in
  String.concat "/" (strip segs)

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

(** [file:line:col: severity [rule] message] — the grep-able shape
    editors and CI logs know how to hyperlink. *)
let to_string t =
  Printf.sprintf "%s:%d:%d: %s [%s] %s" t.file t.line t.col
    (severity_to_string t.severity)
    t.rule t.message

let to_json t : Repro_util.Json_out.t =
  let module J = Repro_util.Json_out in
  J.Obj
    [
      ("rule", J.Str t.rule);
      ("severity", J.Str (severity_to_string t.severity));
      ("file", J.Str t.file);
      ("line", J.Int t.line);
      ("col", J.Int t.col);
      ("line_hash", J.Str t.line_hash);
      ("message", J.Str t.message);
      ("hint", J.Str t.hint);
    ]
