(** Tests for the AST-level analyzer (lib/analysis): every fixture's
    exact rule-id/line pairs, the baseline silencing/un-silencing
    round trip, and the JSON/SARIF renderings. *)

open Alcotest
module Finding = Repro_analysis.Finding
module Rules = Repro_analysis.Rules
module Baseline = Repro_analysis.Baseline
module Engine = Repro_analysis.Engine

let fixture_dir = "fixtures/analysis"
let fixture name = Filename.concat fixture_dir name

let scan name =
  Engine.scan_file ~rules:Rules.all (fixture name)
  |> List.sort_uniq Finding.compare

let pairs findings =
  List.map (fun (f : Finding.t) -> (f.rule, f.line)) findings

(* Every fixture and the exact (rule, line) findings it must produce.
   Clean files assert the absence of false positives; the three
   lint_atomics seeded violations (raw Atomic, Obj.magic, discarded
   Domain.spawn) live on as atomics_raw_bad / atomics_magic_bad /
   unjoined_domain_ignore_bad. *)
let expectations =
  [
    ( "spark_purity_ref_bad.ml",
      [ ("metrics-discipline", 2); ("spark-purity", 5) ] );
    ("spark_purity_helper_bad.ml", [ ("spark-purity", 9) ]);
    ("spark_purity_kernel_bad.ml", [ ("spark-purity", 9) ]);
    ("spark_purity_io_bad.ml", [ ("spark-purity", 3) ]);
    ("spark_purity_raise_bad.ml", [ ("spark-purity", 3) ]);
    ("spark_purity_ok.ml", []);
    ( "dist_submit_bad.ml",
      [
        ("metrics-discipline", 3); ("marshal-safety", 9); ("spark-purity", 9);
        ("spark-purity", 10);
      ] );
    ("dist_submit_ok.ml", []);
    ( "atomics_raw_bad.ml",
      [ ("metrics-discipline", 2); ("atomics-discipline", 2) ] );
    ("atomics_stdlib_bad.ml", [ ("atomics-discipline", 2) ]);
    ("atomics_magic_bad.ml", [ ("atomics-discipline", 2) ]);
    ( "atomics_alias_bad.ml",
      [
        ("atomics-discipline", 3); ("metrics-discipline", 5);
        ("atomics-discipline", 5);
      ] );
    ("atomics_open_bad.ml", [ ("atomics-discipline", 2) ]);
    ("atomics_ok.ml", []);
    ( "metrics_tally_bad.ml",
      [ ("metrics-discipline", 2); ("metrics-discipline", 4) ] );
    ("metrics_tally_ok.ml", []);
    ( "dist_ring_raw_atomic_bad.ml",
      [
        ("metrics-discipline", 3); ("atomics-discipline", 3);
        ("atomics-discipline", 4);
      ] );
    ("dist_ring_shim_ok.ml", []);
    ("blocking_bad.ml", [ ("blocking-in-worker", 6) ]);
    ("blocking_ok.ml", []);
    ("discarded_future_bad.ml", [ ("discarded-future", 3) ]);
    ("discarded_future_ok.ml", []);
    ("unjoined_domain_ignore_bad.ml", [ ("unjoined-domain", 2) ]);
    ("unjoined_domain_pipe_bad.ml", [ ("unjoined-domain", 3) ]);
    ("unjoined_domain_wildcard_bad.ml", [ ("unjoined-domain", 3) ]);
    ("unjoined_domain_seq_bad.ml", [ ("unjoined-domain", 3) ]);
    ("unjoined_domain_ok.ml", []);
    ("parse_error_bad.ml", [ ("parse-error", 2) ]);
    ("fd_leak_exn_bad.ml", [ ("fd-leak", 3) ]);
    ("fd_leak_protect_ok.ml", []);
    ("taint_rebind_bad.ml", [ ("marshal-safety", 9) ]);
    ("taint_rebind_ok.ml", []);
    ("sanctioned_blocking_bad.ml", [ ("blocking-in-worker", 2) ]);
    ( "sanctioned_exemptions_bad.ml",
      [ ("blocking-in-worker", 3); ("blocking-in-worker", 4) ] );
  ]

let fixture_case (name, expected) () =
  check
    (list (pair string int))
    name expected
    (pairs (scan name))

(* ---------------- cross-module fixture groups ---------------- *)

(* Each group is a directory of files that only violate a rule when
   linked together; expectations are exact (rule, file, line) triples.
   The group file counts feed the whole-tree aggregate below. *)
let group_expectations =
  [
    ( "xmod_blocking",
      3,
      [ ("blocking-in-worker", "xmod_blocking/xb_helper.ml", 2) ] );
    ( "xmod_marshal",
      3,
      [ ("marshal-safety", "xmod_marshal/xm_main.ml", 5) ] );
    ( "xmod_protocol",
      3,
      [ ("protocol-exhaustiveness", "xmod_protocol/xp_msg.ml", 4) ] );
    ( "xmod_ring",
      2,
      [
        ("ring-discipline", "xmod_ring/xr_outside.ml", 2);
        ("ring-discipline", "xmod_ring/xr_outside.ml", 4);
        ("ring-discipline", "xmod_ring/xr_outside.ml", 4);
      ] );
    ( "xmod_ring_fenced",
      1,
      [ ("ring-discipline", "xmod_ring_fenced/shm_ring.ml", 10) ] );
    ("xmod_frame", 2, [ ("frame-lifetime", "xmod_frame/xf_user.ml", 6) ]);
    ("xmod_frame_ok", 2, []);
    ("xmod_fdleak", 2, [ ("fd-leak", "xmod_fdleak/xfd_main.ml", 4) ]);
    ("xmod_fdclose", 2, []);
    ("xmod_wakeup", 2, [ ("lost-wakeup", "xmod_wakeup/ws_wait.ml", 5) ]);
    ("xmod_wakeup_ok", 2, []);
    ( "xmod_fiber",
      2,
      [
        ("blocking-in-worker", "xmod_fiber/fiber.ml", 4);
        ("blocking-in-worker", "xmod_fiber/fiber.ml", 5);
        ("blocking-in-worker", "xmod_fiber/fiber.ml", 6);
      ] );
  ]

(* strip the fixtures/analysis/ prefix so the tables above stay short *)
let strip_fixture_prefix f =
  let p = fixture_dir ^ "/" in
  if String.length f > String.length p && String.sub f 0 (String.length p) = p
  then String.sub f (String.length p) (String.length f - String.length p)
  else f

let group_case (dir, nfiles, expected) () =
  let r = Engine.run ~rules:Rules.all [ fixture dir ] in
  check int (dir ^ " file count") nfiles r.Engine.files_scanned;
  check
    (list (pair string (pair string int)))
    dir
    (List.map (fun (rule, file, line) -> (rule, (file, line))) expected)
    (List.map
       (fun (f : Finding.t) -> (f.rule, (strip_fixture_prefix f.file, f.line)))
       r.Engine.fresh)

(* A lone file from a group shows nothing: the facts only become a
   violation when the linker sees the other modules. *)
let singleton_scan_misses_cross_module () =
  check
    (list (pair string int))
    "xb_worker alone" []
    (pairs (scan "xmod_blocking/xb_worker.ml"));
  check
    (list (pair string int))
    "xm_main alone" []
    (pairs (scan "xmod_marshal/xm_main.ml"));
  check
    (list (pair string int))
    "xp_msg alone" []
    (pairs (scan "xmod_protocol/xp_msg.ml"))

(* The whole fixture tree through Engine.run: file count and total
   finding count must agree with the per-file and per-group tables (no
   fixture silently skipped, no finding double-reported, and linking
   all groups at once does not cross-contaminate them). *)
let engine_run_aggregates () =
  let r = Engine.run ~rules:Rules.all [ fixture_dir ] in
  check int "files scanned"
    (List.length expectations
    + List.fold_left (fun a (_, n, _) -> a + n) 0 group_expectations)
    r.Engine.files_scanned;
  check int "total findings"
    (List.fold_left (fun a (_, e) -> a + List.length e) 0 expectations
    + List.fold_left (fun a (_, _, e) -> a + List.length e) 0 group_expectations)
    (List.length r.Engine.fresh);
  check int "nothing suppressed without a baseline" 0
    (List.length r.Engine.suppressed)

(* Rule ids are the stable interface for baselines and --rule: lock
   them down. *)
let rule_ids_stable () =
  check (list string) "registry ids"
    [
      "spark-purity"; "atomics-discipline"; "metrics-discipline";
      "blocking-in-worker";
      "discarded-future"; "unjoined-domain"; "marshal-safety";
      "ring-discipline"; "protocol-exhaustiveness"; "frame-lifetime";
      "fd-leak"; "lost-wakeup";
    ]
    Rules.ids

(* A baseline line for finding [f], keyed by [hash]. *)
let baseline_entry (f : Finding.t) hash =
  Printf.sprintf "%s %s:%d#%s -- seeded fixture, intentionally violating"
    f.rule f.file f.line hash

(* A matching baseline entry silences the finding; removing it brings
   the finding back; an entry that matches nothing is stale. *)
let baseline_roundtrip () =
  (* the fixture also trips metrics-discipline on its module-level
     counter; keep just the spark-purity finding for the round trip *)
  let findings =
    List.filter
      (fun (f : Finding.t) -> f.rule = "spark-purity")
      (scan "spark_purity_ref_bad.ml")
  in
  check int "one finding to play with" 1 (List.length findings);
  let f = List.hd findings in
  let b = Baseline.of_string (baseline_entry f f.line_hash) in
  let fresh, suppressed, stale = Baseline.apply b findings in
  check int "silenced" 0 (List.length fresh);
  check int "recorded as suppressed" 1 (List.length suppressed);
  check int "no stale entries" 0 (List.length stale);
  (* un-silence: no baseline *)
  let fresh, suppressed, _ = Baseline.apply [] findings in
  check int "back without baseline" 1 (List.length fresh);
  check int "no suppressions" 0 (List.length suppressed);
  (* wrong hash -> stale entry, finding stays fresh *)
  let b2 = Baseline.of_string (baseline_entry f "aaaaaaaaaaaa") in
  let fresh, _, stale = Baseline.apply b2 findings in
  check int "finding survives mismatch" 1 (List.length fresh);
  check int "entry reported stale" 1 (List.length stale)

(* Baseline paths are normalised, so an entry written as ../<path>
   still matches (the dune @lint rule runs from _build/default/tools). *)
let baseline_path_normalisation () =
  let findings = scan "atomics_magic_bad.ml" in
  let b =
    Baseline.of_string
      (Printf.sprintf "atomics-discipline ../%s:2#%s -- seeded fixture"
         (fixture "atomics_magic_bad.ml")
         (List.hd findings).Finding.line_hash)
  in
  let fresh, suppressed, _ = Baseline.apply b findings in
  check int "normalised path matches" 0 (List.length fresh);
  check int "suppressed" 1 (List.length suppressed)

let baseline_rejects_missing_justification () =
  check_raises "no justification"
    (Failure "<baseline>:1: baseline syntax error: missing ' -- <justification>'")
    (fun () -> ignore (Baseline.of_string "spark-purity lib/a.ml:3"))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let sarif_shape () =
  let findings = scan "atomics_raw_bad.ml" in
  let f =
    List.find
      (fun (f : Finding.t) -> f.rule = "atomics-discipline" && f.line = 2)
      findings
  in
  let fresh, suppressed, _ =
    Baseline.apply (Baseline.of_string (baseline_entry f f.line_hash)) findings
  in
  let report =
    {
      Engine.findings;
      fresh;
      suppressed;
      stale = [];
      duplicate_entries = [];
      files_scanned = 1;
      per_rule = [];
      summarize_ms = 0.;
      link_ms = 0.;
    }
  in
  let s = Repro_util.Json_out.to_string (Engine.sarif_report ~rules:Rules.all report) in
  check bool "declares SARIF 2.1.0" true (contains ~sub:"\"version\": \"2.1.0\"" s);
  check bool "links the 2.1.0 schema" true (contains ~sub:"sarif-2.1.0.json" s);
  check bool "lists the rule" true (contains ~sub:"\"id\": \"atomics-discipline\"" s);
  check bool "result carries ruleId" true
    (contains ~sub:"\"ruleId\": \"atomics-discipline\"" s);
  check bool "1-based SARIF line" true (contains ~sub:"\"startLine\": 2" s);
  check bool "suppression justification travels" true
    (contains ~sub:"seeded fixture, intentionally violating" s)

let json_shape () =
  let r = Engine.run ~rules:Rules.all [ fixture_dir ] in
  let s = Repro_util.Json_out.to_string (Engine.json_report ~rules:Rules.all r) in
  check bool "schema id" true (contains ~sub:"repro/analysis/v2" s);
  check bool "stable rule listing" true
    (contains ~sub:"\"spark-purity\"" s);
  check bool "findings carry hints" true (contains ~sub:"\"hint\"" s);
  check bool "per-rule counts present" true (contains ~sub:"\"per_rule\"" s)

(* ---------------- content-hash baseline keys ---------------- *)

(* The stable part of a baseline key is the digest of the finding's
   source line: a hash entry suppresses even when its advisory line
   number is wrong, and a wrong hash goes stale like any other
   mismatch. *)
let baseline_hash_keying () =
  let findings =
    List.filter
      (fun (f : Finding.t) -> f.rule = "spark-purity")
      (scan "spark_purity_ref_bad.ml")
  in
  let f = List.hd findings in
  check int "engine filled line_hash" 12 (String.length f.Finding.line_hash);
  let entry line hash =
    Baseline.of_string
      (Printf.sprintf "spark-purity %s:%d#%s -- seeded fixture"
         (fixture "spark_purity_ref_bad.ml") line hash)
  in
  (* right hash, hopelessly wrong advisory line: still suppresses *)
  let fresh, suppressed, stale =
    Baseline.apply (entry 999 f.Finding.line_hash) findings
  in
  check int "hash match silences" 0 (List.length fresh);
  check int "suppressed" 1 (List.length suppressed);
  check int "not stale" 0 (List.length stale);
  (* right line, wrong hash: entry goes stale, finding stays fresh *)
  let fresh, _, stale =
    Baseline.apply (entry f.Finding.line "aaaaaaaaaaaa") findings
  in
  check int "hash mismatch keeps finding" 1 (List.length fresh);
  check int "entry reported stale" 1 (List.length stale);
  (* suggest emits the hash-keyed format *)
  check bool "suggest carries the hash" true
    (contains ~sub:("#" ^ f.Finding.line_hash) (Baseline.suggest f))

let baseline_rejects_bad_hash () =
  check_raises "malformed hash"
    (Failure
       "<baseline>:1: baseline syntax error: bad line hash 'ZZZ' (lowercase \
        hex expected)")
    (fun () ->
      ignore (Baseline.of_string "spark-purity lib/a.ml:3#ZZZ -- why"));
  check_raises "missing hash"
    (Failure
       "<baseline>:1: baseline syntax error: expected '<path>:<line>#<hash>'")
    (fun () -> ignore (Baseline.of_string "spark-purity lib/a.ml:3 -- why"))

(* The production tree must be clean modulo the checked-in baseline —
   the same gate `dune build @lint` applies, exercised here from the
   test suite so `dune runtest` alone catches a regression.  Sources
   are reachable from _build/default/test via the workspace root. *)
let tree_is_clean_under_baseline () =
  let root = "../../.." in
  let lib = Filename.concat root "lib" and bin = Filename.concat root "bin" in
  if Sys.file_exists lib && Sys.file_exists bin then begin
    let baseline =
      Baseline.load (Filename.concat root "tools/lint_baseline.txt")
    in
    let r = Engine.run ~baseline ~rules:Rules.all [ lib; bin ] in
    let render fs =
      String.concat "; " (List.map Finding.to_string fs)
    in
    check string "no fresh findings" "" (render r.Engine.fresh);
    check int "no stale baseline entries" 0 (List.length r.Engine.stale)
  end

(* Duplicate suppression keys: apply consumes one entry per finding,
   so a repeated key either hides a stale entry or double-suppresses a
   regressed line; the engine reports the repeats and the drivers exit
   2 on them. *)
let baseline_duplicate_detection () =
  let b =
    Baseline.of_string
      "spark-purity lib/a.ml:3#abcdefabcdef -- first\n\
       spark-purity lib/a.ml:9#abcdefabcdef -- same hash, other line\n\
       spark-purity lib/b.ml:3#abcdefabcdef -- other file, not a dup\n\
       fd-leak lib/c.ml:4#0123456789ab -- first\n\
       fd-leak lib/c.ml:8#0123456789ab -- repeat, other advisory line\n"
  in
  let dups = Baseline.duplicates b in
  check
    (list (pair string int))
    "second and later occurrences flagged"
    [ ("spark-purity", 2); ("fd-leak", 5) ]
    (List.map (fun (e : Baseline.entry) -> (e.Baseline.rule, e.Baseline.source_line)) dups);
  (* the engine surfaces them in the report and the text rendering *)
  let r = Engine.run ~baseline:b ~rules:Rules.all [ fixture "atomics_ok.ml" ] in
  check int "report carries the duplicates" 2
    (List.length r.Engine.duplicate_entries);
  check bool "text report names them" true
    (contains ~sub:"duplicate baseline entry" (Engine.text_report r))

let suite =
  ( "analysis",
    List.map
      (fun (name, expected) ->
        test_case ("fixture " ^ name) `Quick (fixture_case (name, expected)))
      expectations
    @ List.map
        (fun ((dir, _, _) as g) ->
          test_case ("linked group " ^ dir) `Quick (group_case g))
        group_expectations
    @ [
        test_case "singleton scan misses cross-module facts" `Quick
          singleton_scan_misses_cross_module;
        test_case "baseline keys on line content hash" `Quick
          baseline_hash_keying;
        test_case "baseline rejects malformed hashes" `Quick
          baseline_rejects_bad_hash;
        test_case "baseline duplicates detected" `Quick
          baseline_duplicate_detection;
        test_case "engine run aggregates fixtures" `Quick engine_run_aggregates;
        test_case "rule ids are stable" `Quick rule_ids_stable;
        test_case "baseline silences and un-silences" `Quick baseline_roundtrip;
        test_case "baseline normalises paths" `Quick baseline_path_normalisation;
        test_case "baseline requires a justification" `Quick
          baseline_rejects_missing_justification;
        test_case "SARIF 2.1.0 document shape" `Quick sarif_shape;
        test_case "JSON report shape" `Quick json_shape;
        test_case "lib+bin clean under checked-in baseline" `Quick
          tree_is_clean_under_baseline;
      ] )
