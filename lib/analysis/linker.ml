(** Phase 2 of the two-phase engine: link per-file {!Summary} values
    into a whole-program view.

    Linking is name resolution over the summaries — no typed tree, no
    cmt files.  An identifier [[x]] resolves to defs named [x] in the
    same file; [[...; M; f]] resolves to defs named [f] in any summary
    whose module name is [M].  That is deliberately over-approximate
    (two modules with the same basename alias each other) and
    under-approximate (functor applications, first-class modules), the
    right trade-off for a lint: the linked rules only report what they
    can show a concrete witness chain for. *)

type resolved = { target_file : string; target : Summary.def }

type program = {
  files : Summary.t list;  (** sorted by [s_file] *)
  by_module : (string, Summary.t list) Hashtbl.t;
  by_file : (string, Summary.t) Hashtbl.t;
  fd_taint : (string * string, string * string) Hashtbl.t;
      (** (file, def-name) -> (resource name, witness chain), for defs
          that {e hold} a marshal-unsafe resource.  Function defs that
          merely construct a resource when called are keyed separately
          in {!fn_taint}. *)
  fn_taint : (string * string, string * string) Hashtbl.t;
      (** (file, fn-name) -> (resource name, witness): calling this
          function returns/creates the resource *)
}

let defs_of s = s.Summary.s_defs

(** All defs [parts] can refer to, seen from [from] (a summary).
    Resolution never crosses into a different module for a bare
    identifier, and for a qualified one only matches the final module
    segment — aliases ([module M = Message]) thus still resolve as
    long as the alias matches nothing else. *)
let resolve program ~(from : Summary.t) parts : resolved list =
  match parts with
  | [] -> []
  | [ x ] ->
      List.filter_map
        (fun d ->
          if d.Summary.d_name = x then
            Some { target_file = from.Summary.s_file; target = d }
          else None)
        (defs_of from)
  | _ -> (
      match List.rev parts with
      | f :: rev_mods -> (
          let modname =
            match rev_mods with m :: _ -> Some m | [] -> None
          in
          match modname with
          | None -> []
          | Some m -> (
              match Hashtbl.find_opt program.by_module m with
              | None -> []
              | Some summaries ->
                  List.concat_map
                    (fun s ->
                      List.filter_map
                        (fun d ->
                          if d.Summary.d_name = f && d.Summary.d_top then
                            Some { target_file = s.Summary.s_file; target = d }
                          else None)
                        (defs_of s))
                    summaries))
      | [] -> [])

(* ---------------- resource taint fixpoint ---------------- *)

module SMap = Map.Make (String)

(* Two tables, computed together to a fixpoint:
   - fn_taint: a *function* def whose body constructs a resource and
     lets it reach the result — calling it yields a live resource.
   - fd_taint: a *value* def that holds a resource right now: its RHS
     constructs one, calls an fn-tainted function, or references an
     fd-tainted value.  Only these make marshalling the capture wrong;
     capturing a maker function is harmless until it is called.

   Since PR 8 the intra-def propagation is {e flow-sensitive} over the
   def's {!Cfg}: taint lives per program point keyed by local variable,
   a rebinding kills the old fact, and only taint reaching the def's
   result slot escapes into the tables.  [let fd = openfile ... in
   Unix.close fd; compute ()] taints nothing; the old summary-level
   fixpoint poisoned the whole function. *)

let ret_slot = "<ret>"

(* What calling [parts] yields, under the current tables: a direct
   resource construction, or a call/reference to an fn-tainted def.
   [dname] prefixes propagated witnesses (the chain reads caller ->
   callee -> constructor). *)
let call_taint program ~(from : Summary.t) ~dname parts =
  match Summary.resource_of_parts parts with
  | Some r ->
      Some
        ( Summary.resource_name r,
          Printf.sprintf "%s (via %s in %s)" (Summary.resource_name r)
            (Astutil.dotted parts) from.Summary.s_file )
  | None ->
      List.find_map
        (fun { target_file; target } ->
          match
            Hashtbl.find_opt program.fn_taint (target_file, target.Summary.d_name)
          with
          | Some (res, w) -> Some (res, Printf.sprintf "%s -> %s" dname w)
          | None -> None)
        (resolve program ~from parts)

(* What referencing [parts] as a value yields: a local tainted at this
   program point, an fd-tainted value def, or (conservatively, matching
   the summary-level engine) an aliased maker function. *)
let ident_taint program ~(from : Summary.t) ~dname ~state parts =
  match parts with
  | [ x ] when SMap.mem x state -> Some (SMap.find x state)
  | _ -> (
      match Summary.resource_of_parts parts with
      | Some r ->
          Some
            ( Summary.resource_name r,
              Printf.sprintf "%s (via %s in %s)" (Summary.resource_name r)
                (Astutil.dotted parts) from.Summary.s_file )
      | None ->
          List.find_map
            (fun { target_file; target } ->
              (* Only module-level value defs taint by name here: a
                 bare local is governed by the flow state above, and
                 falling back to a same-named nested def would
                 resurrect taint a rebinding just killed. *)
              if not target.Summary.d_top then None
              else
              let key = (target_file, target.Summary.d_name) in
              match Hashtbl.find_opt program.fd_taint key with
              | Some (res, w) ->
                  Some (res, Printf.sprintf "%s -> %s" dname w)
              | None -> (
                  match Hashtbl.find_opt program.fn_taint key with
                  | Some (res, w) ->
                      Some (res, Printf.sprintf "%s -> %s" dname w)
                  | None -> None))
            (resolve program ~from parts))

(* The flow-sensitive intra-def solver needs the program tables in its
   transfer function; the functor interface is context-free, so the
   context rides in a ref set around each [solve] call. *)
type taint_ctx = { tc_program : program; tc_from : Summary.t; tc_dname : string }

let taint_context : taint_ctx option ref = ref None

module Taint_lattice = struct
  type state = (string * string) SMap.t

  let bottom = SMap.empty
  let entry = SMap.empty

  let equal =
    SMap.equal (fun (r1, w1) (r2, w2) -> String.equal r1 r2 && String.equal w1 w2)

  (* may-hold union; the first witness found wins, like the tables *)
  let join a b = SMap.union (fun _ x _ -> Some x) a b

  let transfer (node : Cfg.node) ~edge:_ state =
    let ctx =
      match !taint_context with Some c -> c | None -> assert false
    in
    let program = ctx.tc_program and from = ctx.tc_from and dname = ctx.tc_dname in
    match node.Cfg.n_event with
    | Some (Cfg.Bind { vars; src }) -> (
        let state = List.fold_left (fun st v -> SMap.remove v st) state vars in
        let taint =
          match src with
          | Cfg.Src_call parts -> call_taint program ~from ~dname parts
          | Cfg.Src_ident parts -> ident_taint program ~from ~dname ~state parts
          | Cfg.Src_other -> None
        in
        match taint with
        | Some t -> List.fold_left (fun st v -> SMap.add v t st) state vars
        | None -> state)
    | Some (Cfg.Call { parts; tail = true; _ }) -> (
        match call_taint program ~from ~dname parts with
        | Some t -> SMap.add ret_slot t state
        | None -> state)
    | Some (Cfg.Return paths) -> (
        let hit =
          List.find_map
            (fun parts -> ident_taint program ~from ~dname ~state parts)
            paths
        in
        match hit with Some t -> SMap.add ret_slot t state | None -> state)
    | _ -> state
end

module Taint_solver = Dataflow.Make (Taint_lattice)

(* The (resource, witness) the def's result holds, if any. *)
let def_result_taint program (s : Summary.t) (d : Summary.def) =
  match d.Summary.d_cfg with
  | Some g ->
      taint_context :=
        Some { tc_program = program; tc_from = s; tc_dname = d.Summary.d_name };
      let r = Taint_solver.solve g in
      taint_context := None;
      SMap.find_opt ret_slot r.Taint_solver.at_exit
  | None -> (
      (* no CFG (parse fallback): seed from the summary-level facts *)
      match d.Summary.d_resources with
      | (r, spelled, _) :: _ ->
          Some
            ( Summary.resource_name r,
              Printf.sprintf "%s (via %s in %s)" (Summary.resource_name r)
                spelled s.Summary.s_file )
      | [] -> None)

let compute_taint program =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        let file = s.Summary.s_file in
        List.iter
          (fun d ->
            let key = (file, d.Summary.d_name) in
            let table =
              if d.Summary.d_is_fun then program.fn_taint else program.fd_taint
            in
            if not (Hashtbl.mem table key) then
              match def_result_taint program s d with
              | Some t ->
                  Hashtbl.replace table key t;
                  changed := true
              | None -> ())
          (defs_of s))
      program.files
  done

let link (summaries : Summary.t list) : program =
  let files =
    List.sort (fun a b -> String.compare a.Summary.s_file b.Summary.s_file) summaries
  in
  let by_module = Hashtbl.create 64 and by_file = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace by_file s.Summary.s_file s;
      let prev =
        match Hashtbl.find_opt by_module s.Summary.s_module with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace by_module s.Summary.s_module (s :: prev))
    files;
  let program =
    { files; by_module; by_file; fd_taint = Hashtbl.create 32; fn_taint = Hashtbl.create 32 }
  in
  compute_taint program;
  program

(** The witness chain for a captured identifier that resolves to a
    resource-holding {e value} def, if any. *)
let capture_taint program ~(from : Summary.t) parts =
  List.find_map
    (fun { target_file; target } ->
      if target.Summary.d_is_fun then None
      else
        Option.map snd
          (Hashtbl.find_opt program.fd_taint (target_file, target.Summary.d_name)))
    (resolve program ~from parts)

(** Does a capture's target resolve to a top-level (module-state) def?
    Used by the lost-write check: assigning a worker-side copy of a
    coordinator global is silently discarded. *)
let capture_is_global program ~(from : Summary.t) parts =
  List.exists
    (fun { target; _ } -> target.Summary.d_top && not target.Summary.d_is_fun)
    (resolve program ~from parts)

(* ---------------- blocking reachability ---------------- *)

type blocking_witness = {
  b_file : string;  (** file of the blocking primitive *)
  b_prim : string;
  b_loc : Summary.loc;
  b_root : string;  (** the worker-loop root the chain starts from *)
  b_chain : string list;  (** def names from root to the blocking def *)
}

(** BFS from every worker-loop root ([worker_loop] / [idle_wait] defs
    and [Domain.spawn] lambdas) in [roots_from] files, over resolved
    calls through the whole program; [skip_file] drops edges into
    exempt files (lib/check drives workers deterministically and may
    block by design).  Returns every blocking primitive reachable,
    located at the primitive itself. *)
let blocking_from_workers program ~roots_from ~skip_file :
    blocking_witness list =
  let out = ref [] in
  let visited = Hashtbl.create 64 in
  let rec visit ~root ~chain (file : string) (d : Summary.def) =
    let key = (file, d.Summary.d_name, d.Summary.d_loc) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.replace visited key ();
      let chain = chain @ [ d.Summary.d_name ] in
      List.iter
        (fun (prim, loc) ->
          out :=
            { b_file = file; b_prim = prim; b_loc = loc; b_root = root; b_chain = chain }
            :: !out)
        d.Summary.d_blocking;
      match Hashtbl.find_opt program.by_file file with
      | None -> ()
      | Some s ->
          List.iter
            (fun (parts, _) ->
              List.iter
                (fun { target_file; target } ->
                  if not (skip_file target_file) then
                    visit ~root ~chain target_file target)
                (resolve program ~from:s parts))
            d.Summary.d_calls
    end
  in
  List.iter
    (fun (s : Summary.t) ->
      if not (skip_file s.Summary.s_file) then begin
        List.iter
          (fun d ->
            if Astutil.SSet.mem d.Summary.d_name Astutil.worker_roots then
              visit ~root:d.Summary.d_name ~chain:[] s.Summary.s_file d)
          (defs_of s);
        List.iter
          (fun d -> visit ~root:"Domain.spawn" ~chain:[] s.Summary.s_file d)
          s.Summary.s_spawn_bodies
      end)
    roots_from;
  (* stable order: by file, then location *)
  List.sort
    (fun a b ->
      let c = String.compare a.b_file b.b_file in
      if c <> 0 then c else compare a.b_loc b.b_loc)
    !out
