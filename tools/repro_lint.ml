(* Command-line driver for the two-phase analyzer (lib/analysis), wired
   as `dune build @lint` and usable standalone:

     repro_lint [--baseline FILE] [--rule ID[,ID...]]... [--json]
                [--sarif FILE] [--list-rules] [ROOT]...

   Scans every .ml under the given roots (default: lib bin), summarises
   each file, links the summaries, runs the rule registry, and
   subtracts the suppression baseline.

   Exit codes:
     0  clean
     1  fresh (non-baselined) findings
     2  no fresh findings, but stale or duplicate baseline entries —
        the baseline must shrink with the code it excuses
     3  usage or baseline syntax errors *)

module Engine = Repro_analysis.Engine
module Rules = Repro_analysis.Rules
module Baseline = Repro_analysis.Baseline
module Json = Repro_util.Json_out

let split_rules s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let () =
  let baseline_path = ref None in
  let rule_ids = ref [] in
  let json = ref false in
  let sarif_path = ref None in
  let list_rules = ref false in
  let roots = ref [] in
  let spec =
    [
      ( "--baseline",
        Arg.String (fun s -> baseline_path := Some s),
        "FILE Suppression baseline (rule path:line#hash -- justification)" );
      ( "--rule",
        Arg.String (fun s -> rule_ids := split_rules s @ !rule_ids),
        "ID[,ID...] Run only these rules (repeatable, comma-separable)" );
      ("--json", Arg.Set json, " Emit the JSON report on stdout");
      ( "--sarif",
        Arg.String (fun s -> sarif_path := Some s),
        "FILE Also write a SARIF 2.1.0 report to FILE" );
      ("--list-rules", Arg.Set list_rules, " List rule ids and exit");
    ]
  in
  let usage = "repro_lint [options] [ROOT]..." in
  Arg.parse spec (fun r -> roots := r :: !roots) usage;
  if !list_rules then begin
    List.iter
      (fun (r : Rules.t) ->
        Printf.printf "%-24s %-7s %s\n" r.id
          (Repro_analysis.Finding.severity_to_string r.severity)
          r.doc)
      Rules.all;
    exit 0
  end;
  let rules =
    match !rule_ids with
    | [] -> Rules.all
    | ids ->
        List.rev_map
          (fun id ->
            match Rules.find id with
            | Some r -> r
            | None ->
                Printf.eprintf "repro_lint: unknown rule %S (known: %s)\n" id
                  (String.concat ", " Rules.ids);
                exit 3)
          ids
  in
  let baseline =
    match !baseline_path with
    | None -> []
    | Some p -> (
        try Baseline.load p
        with Sys_error msg | Failure msg ->
          Printf.eprintf "repro_lint: %s\n" msg;
          exit 3)
  in
  let roots = match List.rev !roots with [] -> [ "lib"; "bin" ] | rs -> rs in
  let report = Engine.run ~baseline ~rules roots in
  (match !sarif_path with
  | Some path -> Json.to_file path (Engine.sarif_report ~rules report)
  | None -> ());
  if !json then print_string (Json.to_string (Engine.json_report ~rules report) ^ "\n")
  else print_string (Engine.text_report report);
  if report.Engine.fresh <> [] then exit 1
  else if report.Engine.stale <> [] || report.Engine.duplicate_entries <> []
  then exit 2
