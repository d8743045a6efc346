(** The analysis driver, in two phases.

    {b Phase 1 (summarise)}: walk the source roots, parse every [.ml]
    file with compiler-libs and extract its {!Summary}.  Every
    {e file-local} rule runs here and its findings are stored in the
    summary.

    {b Phase 2 (link)}: {!Linker.link} the summaries into a
    whole-program view and run the {e linked} rules (marshal-safety,
    ring-discipline, protocol-exhaustiveness, interprocedural
    blocking-in-worker) over it.

    Files only have to {e parse} — the engine never typechecks — so it
    runs on fixture files that reference modules that do not exist.
    [.mli] files are skipped: they declare, they do not execute. *)

module J = Repro_util.Json_out

type report = {
  findings : Finding.t list;  (** everything the rules produced, sorted *)
  fresh : Finding.t list;  (** not covered by the baseline — these gate *)
  suppressed : (Finding.t * string) list;  (** finding, justification *)
  stale : Baseline.entry list;  (** baseline entries that matched nothing *)
  duplicate_entries : Baseline.entry list;
      (** baseline entries whose suppression key repeats an earlier one *)
  files_scanned : int;
  per_rule : (string * int * int) list;
      (** rule id, fresh count, suppressed count — selected rules only *)
  summarize_ms : float;  (** phase 1 wall-clock *)
  link_ms : float;  (** phase 2 wall-clock *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_error_finding ~norm exn : Finding.t =
  let line, col =
    match exn with
    | Syntaxerr.Error err ->
        let loc = Syntaxerr.location_of_error err in
        (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
    | _ -> (1, 0)
  in
  {
    Finding.rule = "parse-error";
    severity = Finding.Error;
    file = norm;
    line;
    col;
    line_hash = "";
    message =
      (match exn with
      | Syntaxerr.Error _ -> "syntax error"
      | e -> "cannot parse: " ^ Printexc.to_string e);
    hint = "fix the syntax error (the build would reject it too)";
  }

(* Summarise one file from source text.  File-local findings for the
   full registry are computed here; rule selection is applied when
   they are pulled out ({!local_findings_of}). *)
let summarize_source ~path ~source : Summary.t =
  let norm = Finding.normalize_path path in
  match
    let lexbuf = Lexing.from_string source in
    Lexing.set_filename lexbuf norm;
    Parse.implementation lexbuf
  with
  | ast ->
      let local_findings =
        List.map
          (fun ((r : Rules.t), check) -> (r.Rules.id, check ~file:path ast))
          (Rules.file_rules Rules.all)
      in
      Summary.of_ast ~file:path ~source ~local_findings ast
  | exception exn ->
      Summary.of_parse_error ~file:path ~source
        ~finding:(parse_error_finding ~norm exn)

(* Pull the selected local findings out of a summary; exemptions and
   rule selection are applied here, not at summarise time. *)
let local_findings_of ~selected (s : Summary.t) : Finding.t list =
  List.concat_map
    (fun (rule_id, findings) ->
      if rule_id = "parse-error" then findings
      else
        match List.find_opt (fun (r : Rules.t) -> r.Rules.id = rule_id) selected with
        | Some r when not (r.Rules.exempt s.Summary.s_file) -> findings
        | _ -> [])
    s.Summary.s_local_findings

let run_linked ~selected (program : Linker.program) : Finding.t list =
  List.concat_map
    (fun ((r : Rules.t), check) ->
      List.filter
        (fun (f : Finding.t) -> not (r.Rules.exempt f.Finding.file))
        (check program))
    (Rules.linked_rules selected)

(* Fill each finding's [line_hash] from its file's summary — this is
   what content-hash baseline entries key on. *)
let attach_hashes (program : Linker.program) findings =
  List.map
    (fun (f : Finding.t) ->
      match Hashtbl.find_opt program.Linker.by_file f.Finding.file with
      | Some s -> { f with Finding.line_hash = Summary.line_hash s ~line:f.Finding.line }
      | None -> f)
    findings

(** Parse one file and run [rules] over it — the single-file view used
    by fixture tests and editor integrations.  Linked rules run over a
    one-file program, so cross-module facts are absent but same-file
    interprocedural facts (a worker loop calling a blocking helper
    below it) still land. *)
let scan_file ~(rules : Rules.t list) path : Finding.t list =
  let s = summarize_source ~path ~source:(read_file path) in
  let program = Linker.link [ s ] in
  local_findings_of ~selected:rules s @ run_linked ~selected:rules program
  |> attach_hashes program
  |> List.sort_uniq Finding.compare

(* Directory walk: skip dotdirs and _build, collect .ml files, sorted
   for deterministic output. *)
let collect_files roots =
  let files = ref [] in
  let rec walk path =
    if Sys.is_directory path then begin
      let base = Filename.basename path in
      if String.length base > 0 && base.[0] <> '.' && base <> "_build" then
        Array.iter (fun entry -> walk (Filename.concat path entry)) (Sys.readdir path)
    end
    else if Filename.check_suffix path ".ml" then files := path :: !files
  in
  List.iter walk roots;
  List.sort String.compare !files

(** Run [rules] over every [.ml] under [roots] and fold the [baseline]
    in.  Findings are sorted and exact duplicates removed (two rules
    walking the same subtree may agree). *)
let run ?(baseline : Baseline.t = []) ~(rules : Rules.t list) roots : report =
  let files = collect_files roots in
  let t0 = Unix.gettimeofday () in
  let summaries =
    List.map (fun path -> summarize_source ~path ~source:(read_file path)) files
  in
  let t1 = Unix.gettimeofday () in
  let program = Linker.link summaries in
  let findings =
    List.concat_map (local_findings_of ~selected:rules) summaries
    @ run_linked ~selected:rules program
    |> attach_hashes program
    |> List.sort_uniq Finding.compare
  in
  let t2 = Unix.gettimeofday () in
  let fresh, suppressed, stale = Baseline.apply baseline findings in
  let per_rule =
    List.map
      (fun (r : Rules.t) ->
        ( r.Rules.id,
          List.length
            (List.filter (fun (f : Finding.t) -> f.Finding.rule = r.Rules.id) fresh),
          List.length
            (List.filter
               (fun ((f : Finding.t), _) -> f.Finding.rule = r.Rules.id)
               suppressed) ))
      rules
  in
  {
    findings;
    fresh;
    suppressed;
    stale;
    duplicate_entries = Baseline.duplicates baseline;
    files_scanned = List.length files;
    per_rule;
    summarize_ms = (t1 -. t0) *. 1000.;
    link_ms = (t2 -. t1) *. 1000.;
  }

(* ---------------- rendering ---------------- *)

let text_report ?(verbose = true) (r : report) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (f : Finding.t) ->
      Buffer.add_string buf (Finding.to_string f);
      Buffer.add_char buf '\n';
      if verbose then begin
        Buffer.add_string buf ("  hint: " ^ f.hint ^ "\n");
        Buffer.add_string buf ("  baseline: " ^ Baseline.suggest f ^ "\n")
      end)
    r.fresh;
  List.iter
    (fun (e : Baseline.entry) ->
      Buffer.add_string buf
        (Printf.sprintf
           "stale baseline entry (matched no finding): %s %s:%d -- %s\n" e.rule
           e.file e.line e.justification))
    r.stale;
  List.iter
    (fun (e : Baseline.entry) ->
      Buffer.add_string buf
        (Printf.sprintf
           "duplicate baseline entry (line %d repeats an earlier key): %s \
            %s:%d -- %s\n"
           e.source_line e.rule e.file e.line e.justification))
    r.duplicate_entries;
  Buffer.add_string buf
    (Printf.sprintf
       "%d file(s) scanned (summarise %.1f ms, link %.1f ms): %d finding(s), \
        %d suppressed by baseline, %d stale baseline entr%s\n"
       r.files_scanned r.summarize_ms r.link_ms
       (List.length r.fresh)
       (List.length r.suppressed)
       (List.length r.stale)
       (if List.length r.stale = 1 then "y" else "ies"));
  if r.duplicate_entries <> [] then
    Buffer.add_string buf
      (Printf.sprintf "%d duplicate baseline entr%s\n"
         (List.length r.duplicate_entries)
         (if List.length r.duplicate_entries = 1 then "y" else "ies"));
  Buffer.contents buf

(** Machine-readable report; rule ids are stable, findings sorted, so
    diffs of this output are meaningful for baselining. *)
let json_report ~(rules : Rules.t list) (r : report) : J.t =
  J.Obj
    [
      ("schema", J.Str "repro/analysis/v2");
      ("rules", J.List (List.map (fun (ru : Rules.t) -> J.Str ru.id) rules));
      ("files_scanned", J.Int r.files_scanned);
      ("summarize_ms", J.Float r.summarize_ms);
      ("link_ms", J.Float r.link_ms);
      ( "per_rule",
        J.Obj
          (List.map
             (fun (id, fresh, supp) ->
               (id, J.Obj [ ("fresh", J.Int fresh); ("suppressed", J.Int supp) ]))
             r.per_rule) );
      ("findings", J.List (List.map Finding.to_json r.fresh));
      ( "suppressed",
        J.List
          (List.map
             (fun ((f : Finding.t), just) ->
               match Finding.to_json f with
               | J.Obj fields -> J.Obj (fields @ [ ("justification", J.Str just) ])
               | other -> other)
             r.suppressed) );
      ( "stale_baseline",
        J.List
          (List.map
             (fun (e : Baseline.entry) ->
               J.Obj
                 [
                   ("rule", J.Str e.rule);
                   ("file", J.Str e.file);
                   ("line", J.Int e.line);
                   ("hash", J.Str e.hash);
                 ])
             r.stale) );
      ( "duplicate_baseline",
        J.List
          (List.map
             (fun (e : Baseline.entry) ->
               J.Obj
                 [
                   ("rule", J.Str e.rule);
                   ("file", J.Str e.file);
                   ("line", J.Int e.line);
                   ("source_line", J.Int e.source_line);
                 ])
             r.duplicate_entries) );
    ]

let sarif_report ~(rules : Rules.t list) (r : report) : J.t =
  Sarif.document ~rules ~fresh:r.fresh ~suppressed:r.suppressed
