(** Phase 1 of the two-phase engine: one self-contained summary per
    [.ml] file.

    A summary carries everything phase 2 ({!Linker} + the linked rules
    in {!Rules}) needs — defined values with their call/blocking/
    resource facts, marshal-boundary closure sites with their captured
    identifiers, protocol variant declarations and dispatch matches,
    ring-word touches — plus the findings of every {e file-local} rule
    and a per-line content-hash table. *)

open Parsetree
open Astutil

(** Resources that must not be captured into a closure that crosses a
    process boundary: a marshalled copy is dead ([Unix.file_descr]), a
    lie ([Mutex.t]/[Condition.t]/[Atomic.t] — the worker synchronises
    against a private copy), or refused outright (Bigarrays are
    abstract custom blocks [Marshal] rejects). *)
type resource = Fd | Mutex | Condition | Atomic | Bigarray

let resource_name = function
  | Fd -> "Unix.file_descr"
  | Mutex -> "Mutex.t"
  | Condition -> "Condition.t"
  | Atomic -> "Atomic.t"
  | Bigarray -> "a Bigarray"

(* Suffix-matched so [A1.create] and [Bigarray.Array1.create] both
   hit.  Functions listed here *return* the resource; value bindings
   whose RHS calls one *hold* it. *)
let resource_makers =
  [
    ([ "Unix"; "openfile" ], Fd); ([ "Unix"; "socket" ], Fd);
    ([ "Unix"; "socketpair" ], Fd); ([ "Unix"; "accept" ], Fd);
    ([ "Unix"; "pipe" ], Fd); ([ "Unix"; "dup" ], Fd);
    ([ "Unix"; "descr_of_in_channel" ], Fd);
    ([ "Unix"; "descr_of_out_channel" ], Fd);
    ([ "Unix"; "stdin" ], Fd); ([ "Unix"; "stdout" ], Fd);
    ([ "Unix"; "stderr" ], Fd);
    ([ "open_in" ], Fd); ([ "open_in_bin" ], Fd);
    ([ "open_out" ], Fd); ([ "open_out_bin" ], Fd);
    ([ "Mutex"; "create" ], Mutex);
    ([ "Condition"; "create" ], Condition);
    ([ "Atomic"; "make" ], Atomic); ([ "Tatomic"; "make" ], Atomic);
    ([ "Unix"; "map_file" ], Bigarray);
    ([ "Array1"; "create" ], Bigarray); ([ "Array2"; "create" ], Bigarray);
    ([ "Array3"; "create" ], Bigarray); ([ "Genarray"; "create" ], Bigarray);
    ([ "Bigarray"; "array1_of_genarray" ], Bigarray);
    ([ "array1_of_genarray" ], Bigarray);
  ]

let resource_of_parts parts =
  let parts = strip_stdlib parts in
  List.find_map
    (fun (suffix, r) -> if ends_with ~suffix parts then Some r else None)
    resource_makers

(** Source location inside the summarised file. *)
type loc = { l_line : int; l_col : int }

let loc_of (l : Location.t) =
  { l_line = l.loc_start.pos_lnum; l_col = l.loc_start.pos_cnum - l.loc_start.pos_bol }

(** One value binding (any nesting depth; [d_top] marks structure-level
    ones).  Facts are about the binding's whole RHS. *)
type def = {
  d_name : string;
  d_loc : loc;
  d_top : bool;
  d_is_fun : bool;
  d_params : string list;
      (** positional parameter names, in order (functions only) *)
  d_calls : (string list * loc) list;
      (** every identifier the RHS references, [Stdlib]-stripped *)
  d_blocking : (string * loc) list;  (** blocking primitives, by name *)
  d_resources : (resource * string * loc) list;
      (** direct resource construction: kind, constructor spelling *)
  d_cfg : Cfg.t option;
      (** control-flow graph of the RHS, for the flow-sensitive rules *)
}

(** A free identifier of a marshal-boundary closure. *)
type capture = { c_name : string; c_parts : string list; c_loc : loc }

(** A closure handed to a process-crossing entry point
    ([Farm.farm]-style, or [Marshal.to_*] with [Closures]). *)
type marshal_site = {
  m_entry : string;
  m_loc : loc;
  m_captures : capture list;
  m_writes : capture list;
      (** writes ([:=], [<-], in-place) whose target is captured from
          outside the closure — lost on the worker's private copy *)
}

(** One [match] over the result of a [recv_*] call. *)
type dispatch = {
  p_recv : string;  (** the recv function's name, e.g. ["recv_to_worker"] *)
  p_recv_mod : string option;  (** [Some "Message"] when called qualified *)
  p_loc : loc;
  p_handled : string list;  (** constructor names matched explicitly *)
  p_wildcard : bool;
}

type variant_decl = {
  v_type : string;
  v_loc : loc;
  v_constrs : (string * loc) list;
}

(** A reference to ring internals: cursor/control words, shim word
    ops on mapped words, or frame Bigarray planes. *)
type ring_touch = { r_desc : string; r_loc : loc }

type t = {
  s_file : string;  (** normalised path *)
  s_module : string;  (** ["Farm"] for [lib/dist/farm.ml] *)
  s_line_hashes : string array;  (** {!Finding.hash_line_text} per line *)
  s_defs : def list;
  s_spawn_bodies : def list;
      (** lambdas passed to [Domain.spawn], as anonymous defs *)
  s_marshal_sites : marshal_site list;
  s_dispatches : dispatch list;
  s_variants : variant_decl list;
  s_recv_fns : string list;  (** top-level defs named [recv_*] *)
  s_ring_touches : ring_touch list;
  s_unfenced_stores : (string * loc) list;
      (** ring-word publishes with no fence in any enclosing binding *)
  s_local_findings : (string * Finding.t list) list;
      (** per file-local rule id, computed at summary time *)
}

let module_name_of_path path =
  let base = Filename.remove_extension (Filename.basename path) in
  String.capitalize_ascii base

(* ---------------- def extraction ---------------- *)

let facts_of_expr e =
  let calls = ref [] and blocking = ref [] and resources = ref [] in
  let seen_apply_fns = Hashtbl.create 16 in
  let note_ident parts loc =
    let parts = strip_stdlib parts in
    if parts <> [] then begin
      calls := (parts, loc_of loc) :: !calls;
      let name = dotted parts in
      if SSet.mem name blocking_prims then
        blocking := (name, loc_of loc) :: !blocking;
      match resource_of_parts parts with
      | Some r when not (Hashtbl.mem seen_apply_fns loc.Location.loc_start) ->
          resources := (r, name, loc_of loc) :: !resources
      | _ -> ()
    end
  in
  let rec go e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> note_ident (lid_parts txt) loc
    | _ -> ());
    descend_children go e
  in
  go e;
  (List.rev !calls, List.rev !blocking, List.rev !resources)

(* ---------------- capture extraction ---------------- *)

(* Free identifiers and captured-state writes of a syntactic function.
   [bound] starts as the parameter set; lets and match cases extend it
   scope-correctly; freshly allocated locals are additionally tracked
   so writes to them are not reported. *)
let captures_of_fun fn_expr =
  let caps = ref [] and writes = ref [] in
  let add_cap bucket name parts loc =
    bucket := { c_name = name; c_parts = parts; c_loc = loc_of loc } :: !bucket
  in
  let note_free bound parts loc =
    match parts with
    | [ x ] -> if not (SSet.mem x bound) then add_cap caps x parts loc
    | _ :: _ -> add_cap caps (dotted parts) parts loc
    | [] -> ()
  in
  let write_target bound fresh target loc verb =
    match expr_ident target with
    | Some [ x ] when SSet.mem x fresh -> ()
    | Some ([ x ] as parts) ->
        add_cap writes
          (Printf.sprintf "%s (%s)" x verb)
          parts loc;
        ignore bound
    | Some parts -> add_cap writes (Printf.sprintf "%s (%s)" (dotted parts) verb) parts loc
    | None -> ()
  in
  let rec walk bound fresh e =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> note_free bound (strip_stdlib (lid_parts txt)) loc
    | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> walk bound fresh vb.pvb_expr) vbs;
        let bound', fresh' =
          List.fold_left
            (fun (b, fr) vb ->
              let vars = pattern_vars vb.pvb_pat in
              let b = SSet.union vars b in
              match simple_var vb.pvb_pat with
              | Some x when is_fresh_alloc vb.pvb_expr -> (b, SSet.add x fr)
              | Some x -> (b, SSet.remove x fr)
              | None -> (b, fr))
            (bound, fresh) vbs
        in
        walk bound' fresh' body
    | Pexp_fun (_, _, pat, body) ->
        walk (SSet.union (pattern_vars pat) bound) fresh body
    | Pexp_function cases | Pexp_match (_, cases) | Pexp_try (_, cases) ->
        (match e.pexp_desc with
        | Pexp_match (scrut, _) | Pexp_try (scrut, _) -> walk bound fresh scrut
        | _ -> ());
        List.iter
          (fun c ->
            let b = SSet.union (pattern_vars c.pc_lhs) bound in
            Option.iter (walk b fresh) c.pc_guard;
            walk b fresh c.pc_rhs)
          cases
    | Pexp_setfield (target, _, v) ->
        write_target bound fresh target e.pexp_loc "field assignment";
        walk bound fresh target;
        walk bound fresh v
    | Pexp_apply (fn, args) ->
        (match expr_ident fn with
        | Some parts -> (
            let p = strip_stdlib parts in
            match (p, args) with
            | [ ":=" ], (_, target) :: _ ->
                write_target bound fresh target e.pexp_loc ":="
            | _ when is_inplace_writer p -> (
                match args with
                | (_, target) :: _ ->
                    write_target bound fresh target e.pexp_loc (dotted p)
                | [] -> ())
            | _ -> ())
        | None -> ());
        walk bound fresh fn;
        List.iter (fun (_, a) -> walk bound fresh a) args
    | _ -> descend_children (walk bound fresh) e
  in
  List.iter (walk (fun_params fn_expr) SSet.empty) (fun_bodies fn_expr);
  (List.rev !caps, List.rev !writes)

(* Entry points whose closure argument is marshalled across a process
   boundary.  [farm] is the Eden-style closure farm; a [Marshal.to_*]
   with [Marshal.Closures] in its flag list is the raw form. *)
let is_marshal_entry fn =
  match expr_ident fn with
  | Some parts -> (
      match last_part (strip_stdlib parts) with
      | Some "farm" -> Some "farm"
      | _ -> None)
  | None -> None

let marshal_flags_have_closures args =
  List.exists
    (fun (_, a) ->
      match a.pexp_desc with
      | Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, _) ->
          let found = ref false in
          let rec scan e =
            (match e.pexp_desc with
            | Pexp_construct ({ txt; _ }, _)
              when last_part (lid_parts txt) = Some "Closures" ->
                found := true
            | _ -> ());
            descend_children scan e
          in
          scan a;
          !found
      | _ -> false)
    args

let is_marshal_to fn =
  match expr_ident fn with
  | Some parts -> (
      match strip_stdlib parts with
      | [ "Marshal"; ("to_string" | "to_bytes" | "to_channel") ] -> true
      | _ -> false)
  | None -> false

(* ---------------- protocol extraction ---------------- *)

let rec constructors_of_pattern wildcard acc p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> (
      match last_part (lid_parts txt) with
      | Some c -> c :: acc
      | None -> acc)
  | Ppat_or (a, b) ->
      constructors_of_pattern wildcard (constructors_of_pattern wildcard acc a) b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) ->
      constructors_of_pattern wildcard acc p
  | Ppat_any | Ppat_var _ ->
      wildcard := true;
      acc
  | _ -> acc

let recv_call_target e =
  match e.pexp_desc with
  | Pexp_apply (fn, _) -> (
      match expr_ident fn with
      | Some parts -> (
          let parts = strip_stdlib parts in
          match last_part parts with
          | Some name
            when String.length name > 5 && String.sub name 0 5 = "recv_" ->
              let m =
                match parts with
                | [ _ ] -> None
                | _ -> (
                    match List.rev parts with
                    | _ :: m :: _ -> Some m
                    | _ -> None)
              in
              Some (name, m)
          | _ -> None)
      | None -> None)
  | _ -> None

let dispatch_of_match ~recv_bindings scrut cases loc =
  let target =
    match recv_call_target scrut with
    | Some t -> Some t
    | None -> (
        (* [let m = recv_x conn in match m with ...] *)
        match scrut.pexp_desc with
        | Pexp_ident { txt = Longident.Lident x; _ } ->
            Hashtbl.find_opt recv_bindings x
        | _ -> None)
  in
  match target with
  | None -> None
  | Some (name, m) ->
      let wildcard = ref false in
      let handled =
        List.fold_left
          (fun acc c -> constructors_of_pattern wildcard acc c.pc_lhs)
          [] cases
      in
      Some
        {
          p_recv = name;
          p_recv_mod = m;
          p_loc = loc_of loc;
          p_handled = List.sort_uniq String.compare handled;
          p_wildcard = !wildcard;
        }

(* ---------------- ring-discipline extraction ---------------- *)

let ring_cursor_fields =
  SSet.of_list
    [ "tail_w"; "head_w"; "sleeping_w"; "tail_local"; "head_local";
      "peer_head"; "peer_tail" ]

let ring_data_fields = SSet.of_list [ "data_chars"; "data_words"; "data_floats" ]

let field_label (lid : Longident.t Location.loc) =
  match last_part (lid_parts lid.txt) with Some l -> l | None -> ""

(* [Mapped_word.store r.tail_w v] — the shim word op on a mapped ring
   word.  [W.store] inside the Spsc functor is not this: the functor is
   the sanctioned abstraction lib/check instantiates. *)
let is_mapped_word_op parts =
  match strip_stdlib parts with
  | [ "Mapped_word"; ("load" | "store") ]
  | [ "Shm_ring"; "Mapped_word"; ("load" | "store") ] ->
      true
  | _ -> false

let ring_facts str =
  let touches = ref [] in
  let touch desc loc = touches := { r_desc = desc; r_loc = loc_of loc } :: !touches in
  iter_exprs str (fun e ->
      match e.pexp_desc with
      | Pexp_field (_, lid) when SSet.mem (field_label lid) ring_cursor_fields ->
          touch
            (Printf.sprintf "reads ring cursor word %s" (field_label lid))
            e.pexp_loc
      | Pexp_setfield (_, lid, _) when SSet.mem (field_label lid) ring_cursor_fields ->
          touch
            (Printf.sprintf "performs cursor arithmetic on ring word %s"
               (field_label lid))
            e.pexp_loc
      | Pexp_field (_, lid) when SSet.mem (field_label lid) ring_data_fields ->
          touch
            (Printf.sprintf "accesses the ring frame plane %s" (field_label lid))
            e.pexp_loc
      | Pexp_ident { txt; loc } when is_mapped_word_op (lid_parts txt) ->
          touch "shim WORD operation on a mapped ring word" loc
      | _ -> ());
  List.rev !touches

(* Publishing stores need a fence in some enclosing binding: the
   producer's tail publish and the consumer's sleeping-arm are both
   StoreLoad edges (documented in shm_ring.ml).  [sleeping := 0]
   (cancel) publishes nothing and is exempt. *)
let unfenced_stores str =
  (* store loc -> fenced-in-some-enclosing-binding *)
  let stores : (string * loc, bool) Hashtbl.t = Hashtbl.create 8 in
  iter_value_bindings str (fun vb ->
      let body_stores = ref [] in
      let has_fence = ref false in
      let rec go e =
        (match e.pexp_desc with
        | Pexp_apply (fn, args) -> (
            match expr_ident fn with
            | Some parts when is_mapped_word_op parts -> (
                match args with
                | (_, target) :: rest -> (
                    let label =
                      match target.pexp_desc with
                      | Pexp_field (_, lid) -> field_label lid
                      | Pexp_ident { txt = Longident.Lident x; _ } -> x
                      | _ -> ""
                    in
                    let is_store =
                      last_part (strip_stdlib parts) = Some "store"
                    in
                    let arming =
                      match rest with
                      | [ (_, { pexp_desc = Pexp_constant (Pconst_integer ("0", _)); _ }) ] ->
                          false
                      | _ -> true
                    in
                    if
                      is_store
                      && (SSet.mem label (SSet.of_list [ "tail_w"; "head_w" ])
                         || (label = "sleeping_w" && arming))
                    then
                      body_stores := (label, loc_of e.pexp_loc) :: !body_stores)
                | [] -> ())
            | Some parts
              when ends_with ~suffix:[ "Fence"; "full" ] (strip_stdlib parts) ->
                has_fence := true
            | _ -> ());
        | _ -> ());
        descend_children go e
      in
      go vb.pvb_expr;
      List.iter
        (fun key ->
          let prev = try Hashtbl.find stores key with Not_found -> false in
          Hashtbl.replace stores key (prev || !has_fence))
        !body_stores);
  Hashtbl.fold (fun k fenced acc -> if fenced then acc else k :: acc) stores []
  |> List.sort compare

(* ---------------- whole-file extraction ---------------- *)

let line_hashes_of_source source =
  let lines = String.split_on_char '\n' source in
  Array.of_list (List.map Finding.hash_line_text lines)

(** Summarise a parsed file.  [local_findings] is supplied by the
    engine (it owns the rule registry; computing them here would be a
    dependency cycle). *)
let of_ast ~file ~source ~(local_findings : (string * Finding.t list) list)
    (str : structure) : t =
  let norm = Finding.normalize_path file in
  (* defs: every value binding, any depth; top-levels flagged *)
  let top_names = Hashtbl.create 32 in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match simple_var vb.pvb_pat with
              | Some n -> Hashtbl.replace top_names (n, vb.pvb_loc.Location.loc_start.pos_lnum) ()
              | None -> ())
            vbs
      | _ -> ())
    str;
  let defs = ref [] in
  iter_value_bindings str (fun vb ->
      match simple_var vb.pvb_pat with
      | Some name ->
          let calls, blocking, resources = facts_of_expr vb.pvb_expr in
          defs :=
            {
              d_name = name;
              d_loc = loc_of vb.pvb_loc;
              d_top =
                Hashtbl.mem top_names (name, vb.pvb_loc.Location.loc_start.pos_lnum);
              d_is_fun = is_syntactic_fun vb.pvb_expr;
              d_params = Cfg.fun_params_list vb.pvb_expr;
              d_calls = calls;
              d_blocking = blocking;
              d_resources = resources;
              d_cfg = Some (Cfg.of_binding vb.pvb_expr);
            }
            :: !defs
      | None -> ());
  (* Domain.spawn lambdas as anonymous roots *)
  let spawn_bodies = ref [] in
  iter_exprs str (fun e ->
      match e.pexp_desc with
      | Pexp_apply (fn, args) -> (
          match expr_ident fn with
          | Some parts when strip_stdlib parts = [ "Domain"; "spawn" ] ->
              List.iter
                (fun (_, a) ->
                  if is_syntactic_fun a then begin
                    let calls, blocking, resources = facts_of_expr a in
                    spawn_bodies :=
                      {
                        d_name = "<Domain.spawn lambda>";
                        d_loc = loc_of a.pexp_loc;
                        d_top = false;
                        d_is_fun = true;
                        d_params = Cfg.fun_params_list a;
                        d_calls = calls;
                        d_blocking = blocking;
                        d_resources = resources;
                        d_cfg = Some (Cfg.of_binding a);
                      }
                      :: !spawn_bodies
                  end)
                args
          | _ -> ())
      | _ -> ());
  (* marshal-boundary closure sites.  The closure argument is either a
     syntactic [fun] or a bare identifier naming a function bound
     earlier in this file ([let g () = ... in Marshal.to_string g
     [Closures]]) — resolve the latter to its binding so its captures
     are still seen. *)
  let fun_defs : (string, expression) Hashtbl.t = Hashtbl.create 32 in
  iter_value_bindings str (fun vb ->
      match simple_var vb.pvb_pat with
      | Some name when is_syntactic_fun vb.pvb_expr ->
          Hashtbl.replace fun_defs name vb.pvb_expr
      | _ -> ());
  let marshal_sites = ref [] in
  iter_exprs str (fun e ->
      match e.pexp_desc with
      | Pexp_apply (fn, args) -> (
          let record entry =
            List.iter
              (fun (_, a) ->
                let closure =
                  if is_syntactic_fun a then Some a
                  else
                    match expr_ident a with
                    | Some [ x ] -> Hashtbl.find_opt fun_defs x
                    | _ -> None
                in
                match closure with
                | Some c ->
                    let captures, writes = captures_of_fun c in
                    marshal_sites :=
                      {
                        m_entry = entry;
                        m_loc = loc_of a.pexp_loc;
                        m_captures = captures;
                        m_writes = writes;
                      }
                      :: !marshal_sites
                | None -> ())
              args
          in
          match is_marshal_entry fn with
          | Some entry -> record entry
          | None ->
              if is_marshal_to fn && marshal_flags_have_closures args then
                record "Marshal (Closures)")
      | _ -> ());
  (* dispatch matches over recv_* results *)
  let dispatches = ref [] in
  let recv_bindings = Hashtbl.create 8 in
  iter_exprs str (fun e ->
      match e.pexp_desc with
      | Pexp_let (_, vbs, _) ->
          List.iter
            (fun vb ->
              match (simple_var vb.pvb_pat, recv_call_target vb.pvb_expr) with
              | Some x, Some t -> Hashtbl.replace recv_bindings x t
              | _ -> ())
            vbs
      | Pexp_match (scrut, cases) -> (
          match dispatch_of_match ~recv_bindings scrut cases e.pexp_loc with
          | Some d -> dispatches := d :: !dispatches
          | None -> ())
      | _ -> ());
  (* variant declarations and recv_* definitions *)
  let variants = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, decls) ->
          List.iter
            (fun d ->
              match d.ptype_kind with
              | Ptype_variant constrs when constrs <> [] ->
                  variants :=
                    {
                      v_type = d.ptype_name.txt;
                      v_loc = loc_of d.ptype_loc;
                      v_constrs =
                        List.map
                          (fun c -> (c.pcd_name.txt, loc_of c.pcd_loc))
                          constrs;
                    }
                    :: !variants
              | _ -> ())
            decls
      | _ -> ())
    str;
  let recv_fns =
    List.filter_map
      (fun d ->
        if
          d.d_top
          && String.length d.d_name > 5
          && String.sub d.d_name 0 5 = "recv_"
        then Some d.d_name
        else None)
      !defs
  in
  {
    s_file = norm;
    s_module = module_name_of_path norm;
    s_line_hashes = line_hashes_of_source source;
    s_defs = List.rev !defs;
    s_spawn_bodies = List.rev !spawn_bodies;
    s_marshal_sites = List.rev !marshal_sites;
    s_dispatches = List.rev !dispatches;
    s_variants = List.rev !variants;
    s_recv_fns = recv_fns;
    s_ring_touches = ring_facts str;
    s_unfenced_stores = unfenced_stores str;
    s_local_findings = local_findings;
  }

(** The summary of a file that failed to parse: empty facts, just the
    parse-error finding and the line hashes. *)
let of_parse_error ~file ~source ~(finding : Finding.t) : t =
  let norm = Finding.normalize_path file in
  {
    s_file = norm;
    s_module = module_name_of_path norm;
    s_line_hashes = line_hashes_of_source source;
    s_defs = [];
    s_spawn_bodies = [];
    s_marshal_sites = [];
    s_dispatches = [];
    s_variants = [];
    s_recv_fns = [];
    s_ring_touches = [];
    s_unfenced_stores = [];
    s_local_findings = [ ("parse-error", [ finding ]) ];
  }

(** The line hash for a 1-based line of this file ([""] out of range). *)
let line_hash t ~line =
  if line >= 1 && line <= Array.length t.s_line_hashes then
    t.s_line_hashes.(line - 1)
  else ""
