(** Shared parsetree plumbing for the analyzer.

    Both the file-local rules ({!Rules}) and the per-file summary
    extraction ({!Summary}) walk compiler-libs parsetrees with the same
    small vocabulary: longident flattening, one-level descent, binding
    and expression iterators, the purity classifier, and the tables of
    blocking / I/O / in-place-writing primitives.  Factoring them here
    keeps the two phases answering "what counts as blocking?" with one
    table. *)

open Parsetree

module SSet = Set.Make (String)

let path_has sub path =
  let n = String.length path and m = String.length sub in
  let rec go i = i + m <= n && (String.sub path i m = sub || go (i + 1)) in
  go 0

let lid_parts (lid : Longident.t) =
  match Longident.flatten lid with parts -> parts | exception _ -> []

(* [Stdlib.Atomic.get] and [Atomic.get] are the same thing. *)
let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let last_part parts =
  match List.rev parts with [] -> None | x :: _ -> Some x

let dotted parts = String.concat "." parts

(* [parts] ends with [suffix] — how we match [Bigarray.Array1.create]
   whether it is spelled in full or through an [A1]-style alias. *)
let ends_with ~suffix parts =
  let np = List.length parts and ns = List.length suffix in
  np >= ns
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop (np - ns) parts = suffix

let expr_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (lid_parts txt)
  | _ -> None

(* Visit [e]'s immediate children with [f] (generic one-level descent:
   lets each walk intercept the constructs it cares about and delegate
   the rest of the traversal, scoped state included, back to itself). *)
let descend_children f e =
  let it =
    { Ast_iterator.default_iterator with expr = (fun _ c -> f c) }
  in
  Ast_iterator.default_iterator.expr it e

(* Iterate every expression in a structure (any depth). *)
let iter_exprs str f =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str

(* Every value binding in the file, any nesting depth. *)
let iter_value_bindings str f =
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          f vb;
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it str

let rec simple_var pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> simple_var p
  | _ -> None

let rec is_wildcard pat =
  match pat.ppat_desc with
  | Ppat_any -> true
  | Ppat_constraint (p, _) -> is_wildcard p
  | _ -> false

(* Every variable a pattern binds ([fun (a, b) -> ...], match cases). *)
let pattern_vars pat =
  let acc = ref SSet.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
              acc := SSet.add txt !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it pat;
  !acc

(* Strip the parameter prefix of a syntactic function, returning the
   body (or bodies, for [function]-style case lists). *)
let rec fun_bodies e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> fun_bodies body
  | Pexp_function cases -> List.map (fun c -> c.pc_rhs) cases
  | _ -> [ e ]

(* The parameters the function prefix binds. *)
let rec fun_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) -> SSet.union (pattern_vars pat) (fun_params body)
  | Pexp_function cases ->
      List.fold_left
        (fun acc c -> SSet.union acc (pattern_vars c.pc_lhs))
        SSet.empty cases
  | _ -> SSet.empty

let is_syntactic_fun e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

(* ---------------- primitive tables ---------------- *)

(* Calls that write an argument in place.  [Apsp.relax] is the
   repository's min-plus kernel: it relaxes its first argument, a row,
   in place. *)
let inplace_writers =
  List.map
    (fun p -> (dotted p, ()))
    [
      [ "Array"; "set" ]; [ "Array"; "unsafe_set" ]; [ "Array"; "fill" ];
      [ "Array"; "blit" ]; [ "Bytes"; "set" ]; [ "Bytes"; "unsafe_set" ];
      [ "Bytes"; "fill" ]; [ "Bytes"; "blit" ]; [ "Hashtbl"; "add" ];
      [ "Hashtbl"; "replace" ]; [ "Hashtbl"; "remove" ]; [ "Hashtbl"; "reset" ];
      [ "Hashtbl"; "clear" ]; [ "Buffer"; "add_string" ]; [ "Buffer"; "add_char" ];
      [ "Buffer"; "clear" ]; [ "Buffer"; "reset" ]; [ "Queue"; "push" ];
      [ "Queue"; "add" ]; [ "Queue"; "pop" ]; [ "Queue"; "take" ];
      [ "Stack"; "push" ]; [ "Stack"; "pop" ]; [ "Apsp"; "relax" ];
    ]

let is_inplace_writer parts = List.mem_assoc (dotted parts) inplace_writers

let is_atomic_write parts =
  match (parts, last_part parts) with
  | _, None | [], _ | [ _ ], _ -> false
  | head :: _, Some l ->
      let anywhere = [ "compare_and_set"; "fetch_and_add"; "exchange" ] in
      let atomic_mods = [ "Atomic"; "Tatomic" ] in
      List.mem l anywhere
      || (List.mem head atomic_mods && List.mem l [ "set"; "incr"; "decr" ])

let io_unqualified =
  SSet.of_list
    [
      "print_string"; "print_endline"; "print_int"; "print_char";
      "print_float"; "print_newline"; "prerr_string"; "prerr_endline";
      "prerr_newline"; "read_line"; "read_int"; "exit";
    ]

let io_modules = SSet.of_list [ "Printf"; "Format"; "Unix"; "Out_channel"; "In_channel" ]

let io_pure_fns =
  SSet.of_list
    [ "sprintf"; "asprintf"; "ksprintf"; "kasprintf"; "gettimeofday"; "time" ]

let is_io parts =
  match parts with
  | [ x ] -> SSet.mem x io_unqualified
  | head :: _ -> (
      SSet.mem head io_modules
      && match last_part parts with
         | Some l -> not (SSet.mem l io_pure_fns)
         | None -> false)
  | [] -> false

let is_raise parts =
  match parts with
  | [ x ] -> List.mem x [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]
  | _ -> false

let blocking_prims =
  SSet.of_list
    [
      "Unix.sleep"; "Unix.sleepf"; "Unix.select"; "Mutex.lock";
      "Condition.wait"; "Event.sync"; "Domain.join"; "Thread.delay";
      "Thread.join"; "input_line"; "input_char"; "really_input";
      "really_input_string"; "read_line"; "In_channel.input_line";
      "In_channel.input_all"; "In_channel.really_input_string";
    ]

(* The conventional pool worker entry points: reachability roots for
   blocking-in-worker, alongside lambdas passed to Domain.spawn. *)
let worker_roots = SSet.of_list [ "worker_loop"; "idle_wait" ]

(* ---------------- fresh-allocation / purity ---------------- *)

(* RHS shapes that allocate state owned by the binder: [ref e],
   [Array.make ...], [Buffer.create ...], a literal [| ... |], ... *)
let rec is_fresh_alloc e =
  match e.pexp_desc with
  | Pexp_array _ -> true
  | Pexp_constraint (e, _) -> is_fresh_alloc e
  | Pexp_apply (fn, _) -> (
      match expr_ident fn with
      | Some parts -> (
          match strip_stdlib parts with
          | [ "ref" ] -> true
          | _ :: _ :: _ as p -> (
              match last_part p with
              | Some l ->
                  List.mem l
                    [ "make"; "create"; "init"; "copy"; "make_matrix"; "create_float" ]
              | None -> false)
          | _ -> false)
      | None -> false)
  | _ -> false

type purity_env = { fresh : SSet.t; in_try : bool }

let is_fresh_ident env e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> SSet.mem x env.fresh
  | _ -> false
