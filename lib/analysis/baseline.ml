(** Checked-in suppression baseline.

    One entry per line:

    {v
    <rule-id> <path>:<line>#<line-hash> -- <justification>
    v}

    Blank lines and lines starting with ['#'] are comments.  Paths are
    normalised like {!Finding.normalize_path}, so entries match no
    matter where the analyzer was launched from.

    The stable part of the key is the {e line hash} — a 12-hex-char
    digest of the trimmed source line ({!Finding.hash_line_text}) —
    so a suppression survives the code above it growing or shrinking:
    the line {e number} is an advisory hint for humans reading the
    baseline and is never consulted.  The [baseline:] line printed
    under each finding is a ready-made entry.

    A finding is suppressed by the first unconsumed matching entry;
    entries that match no finding are reported as {e stale} so the
    baseline shrinks as code gets fixed.  The justification is
    mandatory — a suppression nobody can explain is a bug with a paper
    trail. *)

type entry = {
  rule : string;
  file : string;
  line : int;  (** advisory only *)
  hash : string;  (** the suppression key, with [rule] and [file] *)
  justification : string;
  source_line : int;  (** line in the baseline file, for stale reports *)
}

type t = entry list

let parse_error file lineno msg =
  failwith (Printf.sprintf "%s:%d: baseline syntax error: %s" file lineno msg)

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

(** Parse baseline text.  [name] is used in error messages only. *)
let of_string ?(name = "<baseline>") text : t =
  let entries = ref [] in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then begin
        let entry =
          match String.index_opt line ' ' with
          | None ->
              parse_error name lineno
                "expected '<rule> <path>:<line>#<hash> -- <why>'"
          | Some sp -> (
              let rule = String.sub line 0 sp in
              let rest = String.trim (String.sub line (sp + 1) (String.length line - sp - 1)) in
              let loc_part, justification =
                let marker = " -- " in
                let rec find i =
                  if i + String.length marker > String.length rest then None
                  else if String.sub rest i (String.length marker) = marker then Some i
                  else find (i + 1)
                in
                match find 0 with
                | None -> parse_error name lineno "missing ' -- <justification>'"
                | Some i ->
                    ( String.sub rest 0 i,
                      String.trim
                        (String.sub rest
                           (i + String.length marker)
                           (String.length rest - i - String.length marker)) )
              in
              if justification = "" then
                parse_error name lineno "empty justification";
              let loc_part, hash =
                match String.rindex_opt loc_part '#' with
                | Some h ->
                    let hash =
                      String.sub loc_part (h + 1) (String.length loc_part - h - 1)
                    in
                    if hash = "" || not (String.for_all is_hex hash) then
                      parse_error name lineno
                        ("bad line hash '" ^ hash ^ "' (lowercase hex expected)");
                    (String.sub loc_part 0 h, hash)
                | None -> parse_error name lineno "expected '<path>:<line>#<hash>'"
              in
              match String.rindex_opt loc_part ':' with
              | None -> parse_error name lineno "expected '<path>:<line>'"
              | Some c -> (
                  let path = String.sub loc_part 0 c in
                  let ln = String.sub loc_part (c + 1) (String.length loc_part - c - 1) in
                  match int_of_string_opt ln with
                  | None -> parse_error name lineno ("bad line number " ^ ln)
                  | Some line ->
                      {
                        rule;
                        file = Finding.normalize_path path;
                        line;
                        hash;
                        justification;
                        source_line = lineno;
                      }))
        in
        entries := entry :: !entries
      end)
    (String.split_on_char '\n' text);
  List.rev !entries

let load path : t =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string ~name:path text

(** Render a finding as a ready-to-paste baseline line (justification
    left as a placeholder the committer must fill in). *)
let suggest (f : Finding.t) =
  Printf.sprintf "%s %s:%d#%s -- TODO justify" f.rule f.file f.line f.line_hash

(** Entries whose suppression key — rule, file and line hash —
    repeats: the second and later occurrences.  {!apply} consumes one
    entry per finding, so a duplicate either hides a stale entry or
    silently double-suppresses a line that regressed; either way the
    baseline should carry it once. *)
let duplicates (t : t) : entry list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (e : entry) ->
      let key = (e.rule, e.file, e.hash) in
      if Hashtbl.mem seen key then true
      else begin
        Hashtbl.add seen key ();
        false
      end)
    t

let matches (e : entry) (f : Finding.t) =
  e.rule = f.rule && e.file = f.file && e.hash = f.line_hash

(** Split findings into (fresh, suppressed-with-justification), and
    return the stale entries that matched nothing.  Each entry
    suppresses at most one finding (two findings on one line need two
    entries). *)
let apply (t : t) (findings : Finding.t list) :
    Finding.t list * (Finding.t * string) list * entry list =
  let remaining = ref t in
  let fresh = ref [] and suppressed = ref [] in
  List.iter
    (fun (f : Finding.t) ->
      let rec take acc = function
        | [] -> None
        | e :: rest ->
            if matches e f then begin
              remaining := List.rev_append acc rest;
              Some e
            end
            else take (e :: acc) rest
      in
      match take [] !remaining with
      | Some e -> suppressed := (f, e.justification) :: !suppressed
      | None -> fresh := f :: !fresh)
    findings;
  (List.rev !fresh, List.rev !suppressed, !remaining)
