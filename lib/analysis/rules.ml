(** The rule registry.

    Two rule shapes:

    - {b File} rules check one parsetree at a time (spark purity,
      atomics discipline, discarded results).  They run during phase 1
      and their findings are stored inside the file's {!Summary}.
    - {b Linked} rules run during phase 2 over the {!Linker.program}
      built from every summary (marshal safety, ring discipline,
      protocol exhaustiveness, interprocedural blocking-in-worker).
      They are the rules that see across module boundaries.

    Every rule works on the {e untyped} parsetree (via its summary),
    which is what makes the engine dependency-free: scanned sources
    only have to parse, not typecheck.  The flip side is that rules are
    name-based — [module A = Atomic] is resolved by an explicit alias
    pass, but an alias smuggled through a functor argument is
    invisible.  Each rule documents its blind spots; the suppression
    baseline ({!Baseline}) is the escape hatch for intentional
    violations. *)

open Parsetree
open Astutil

type kind =
  | File of (file:string -> Parsetree.structure -> Finding.t list)
  | Linked of (Linker.program -> Finding.t list)

type t = {
  id : string;  (** stable id used in output, baselines and [--rule] *)
  severity : Finding.severity;
  doc : string;  (** one-line description for [--list-rules] and SARIF *)
  hint : string;  (** generic fix hint attached to every finding *)
  exempt : string -> bool;  (** normalised-path-based exemption *)
  kind : kind;
}

let no_exempt _ = false

let mk ~rule ~severity ~hint ~file (loc : Location.t) message : Finding.t =
  let p = loc.loc_start in
  {
    rule;
    severity;
    file = Finding.normalize_path file;
    line = p.pos_lnum;
    col = p.pos_cnum - p.pos_bol;
    line_hash = "";
    message;
    hint;
  }

(* Same, from a summary location (linked rules never hold a parsetree). *)
let mkl ~rule ~severity ~hint ~file (loc : Summary.loc) message : Finding.t =
  {
    rule;
    severity;
    file;
    line = loc.Summary.l_line;
    col = loc.Summary.l_col;
    line_hash = "";
    message;
    hint;
  }

(* ================ rule 1: spark-purity ================ *)

(* Closures handed to the spark machinery may be evaluated by any
   worker — and, under lazy black-holing or fizzle-and-force races,
   conceptually twice — so they must not perform observable effects.
   We flag, inside any syntactic [fun] argument of a spark entry point:
   mutation of state the closure does not own (a [let x = ref ...] or
   array/buffer allocated *inside* the closure is fine: every
   evaluation gets its own copy), shim/raw atomic stores, I/O, raises
   with no enclosing handler, and calls to file-local helpers whose own
   bodies mutate state they do not own (one level of indirection: this
   is what surfaces [pivot_step]-style in-place kernels). *)

(* [submit] and [farm] cover the distributed executor's entry points
   ([Dist.submit]-style task submission, [Farm.farm] closures): their
   payloads cross a process boundary, so the purity obligations are
   strictly stronger than for shared-heap sparks. *)
let spark_entry_names =
  SSet.of_list
    [
      "par"; "spark"; "submit"; "farm"; "par_list"; "par_map"; "par_range";
    ]

let is_spark_entry fn =
  match expr_ident fn with
  | Some parts -> (
      match last_part (strip_stdlib parts) with
      | Some l -> SSet.mem l spark_entry_names
      | None -> false)
  | None -> false

(* Walk a spark-closure body (or a helper body when [check_raise] is
   false), calling [emit loc msg] on every impure construct. *)
let rec purity_walk ~check_raise ~impure_helpers ~emit env e =
  let walk = purity_walk ~check_raise ~impure_helpers ~emit in
  match e.pexp_desc with
  | Pexp_let (_, vbs, body) ->
      List.iter (fun vb -> walk env vb.pvb_expr) vbs;
      let env' =
        List.fold_left
          (fun acc vb ->
            match simple_var vb.pvb_pat with
            | Some x when is_fresh_alloc vb.pvb_expr ->
                { acc with fresh = SSet.add x acc.fresh }
            | Some x -> { acc with fresh = SSet.remove x acc.fresh }
            | None -> acc)
          env vbs
      in
      walk env' body
  | Pexp_try (body, cases) ->
      walk { env with in_try = true } body;
      List.iter
        (fun c ->
          Option.iter (walk env) c.pc_guard;
          walk env c.pc_rhs)
        cases
  | Pexp_setfield (target, _, v) ->
      if not (is_fresh_ident env target) then
        emit e.pexp_loc
          "record field assignment on state captured from outside the sparked \
           closure";
      walk env target;
      walk env v
  | Pexp_setinstvar (_, v) ->
      emit e.pexp_loc "instance-variable assignment inside a sparked closure";
      walk env v
  | Pexp_lazy inner ->
      (* Eden rule: only whole normal forms cross the heap boundary.
         A lazy value inside a sparked/farmed closure is a thunk that
         would be forced on the evaluating PE (or marshalled not at
         all), so the payload is not fully forced before send. *)
      emit e.pexp_loc
        "lazy value constructed inside a sparked closure: payloads must be \
         fully forced before they are sent";
      walk env inner
  | Pexp_apply (fn, args) ->
      let arg_exprs = List.map snd args in
      (match expr_ident fn with
      | Some parts -> (
          let p = strip_stdlib parts in
          let loc = e.pexp_loc in
          if p = [ ":=" ] then (
            match arg_exprs with
            | target :: _ when is_fresh_ident env target -> ()
            | _ ->
                emit loc
                  "reference assignment (:=) to state captured from outside \
                   the sparked closure")
          else if is_inplace_writer p then (
            match arg_exprs with
            | target :: _ when is_fresh_ident env target -> ()
            | _ ->
                emit loc
                  (Printf.sprintf
                     "in-place write (%s) on state captured from outside the \
                      sparked closure"
                     (dotted p)))
          else if is_atomic_write p then
            emit loc
              (Printf.sprintf "atomic store (%s) inside a sparked closure"
                 (dotted p))
          else if is_io p then
            emit loc
              (Printf.sprintf "I/O (%s) inside a sparked closure" (dotted p))
          else if is_raise p then (
            if check_raise && not env.in_try then
              emit loc
                (Printf.sprintf
                   "%s with no enclosing handler inside a sparked closure"
                   (dotted p)))
          else
            match p with
            | [ x ] when SSet.mem x impure_helpers ->
                emit loc
                  (Printf.sprintf
                     "calls %s, which mutates state it does not own" x)
            | _ -> ())
      | None -> ());
      (* Nested spark entries get their own dedicated walk from the
         top-level iterator (with the correct ownership view), so skip
         their closure arguments here. *)
      let skip_funs = is_spark_entry fn in
      walk env fn;
      List.iter
        (fun a -> if not (skip_funs && is_syntactic_fun a) then walk env a)
        arg_exprs
  | _ -> descend_children (walk env) e

(* File-local helpers whose bodies mutate state they do not own (their
   parameters included): calling one from a sparked closure is as
   impure as inlining it. *)
let collect_impure_helpers str =
  let impure = ref SSet.empty in
  iter_value_bindings str (fun vb ->
      match simple_var vb.pvb_pat with
      | Some name when is_syntactic_fun vb.pvb_expr ->
          let found = ref false in
          let emit _ _ = found := true in
          List.iter
            (fun body ->
              purity_walk ~check_raise:false ~impure_helpers:SSet.empty ~emit
                { fresh = SSet.empty; in_try = false }
                body)
            (fun_bodies vb.pvb_expr);
          if !found then impure := SSet.add name !impure
      | _ -> ());
  !impure

let spark_purity =
  let id = "spark-purity" in
  let severity = Finding.Error in
  let hint =
    "make the closure pure (move mutation inside it, onto state it \
     allocates), or baseline the site with a justification that duplicate \
     evaluation is idempotent"
  in
  let check ~file str =
    let impure_helpers = collect_impure_helpers str in
    let acc = ref [] in
    let emit loc msg =
      acc := mk ~rule:id ~severity ~hint ~file loc msg :: !acc
    in
    iter_exprs str (fun e ->
        match e.pexp_desc with
        | Pexp_apply (fn, args) when is_spark_entry fn ->
            List.iter
              (fun (_, a) ->
                if is_syntactic_fun a then
                  List.iter
                    (purity_walk ~check_raise:true ~impure_helpers ~emit
                       { fresh = SSet.empty; in_try = false })
                    (fun_bodies a))
              args
        | _ -> ());
    !acc
  in
  {
    id;
    severity;
    doc =
      "closures passed to par/spark/submit must not mutate shared state, \
       perform I/O, or raise unhandled: they may be evaluated by any worker \
       and must be safe under duplicate evaluation";
    hint;
    (* lib/check deliberately sparks raising/violating closures — that
       is what a model-checking protocol is. *)
    exempt = (fun p -> path_has "lib/check/" p);
    kind = File check;
  }

(* ================ rule 2: atomics-discipline ================ *)

(* The model checker (lib/check) can only see atomic operations routed
   through the Repro_shim.Tatomic shim.  Raw [Atomic.*] (however
   spelled: [Stdlib.Atomic], a [module A = Atomic] alias, or an [open])
   is invisible to DPOR and the race detector; [Obj.magic] defeats the
   type system outright.  The shim itself and the checker's tracing
   cells are exempt by path.

   lib/dist is deliberately NOT exempt: the shared-memory ring
   transport (lib/dist/shm_ring.ml) keeps its mmap'd head/tail/sleeping
   control words behind the shim's [Tatomic.WORD] and [Fence]
   interfaces, which is the sanctioned pattern -- lib/check instantiates
   the same ring functor over traced cells to model-check the SPSC
   handshake.  A raw [Atomic] cursor there would silently fall out of
   the model (see the dist_ring_* fixtures). *)

let atomics_discipline =
  let id = "atomics-discipline" in
  let severity = Finding.Error in
  let hint =
    "route the operation through Repro_shim.Tatomic (functorise over \
     Tatomic.S) so lib/check can trace it"
  in
  let check ~file str =
    let acc = ref [] in
    let emit loc msg =
      acc := mk ~rule:id ~severity ~hint ~file loc msg :: !acc
    in
    let aliases = ref SSet.empty in
    let is_atomic_module_expr me =
      match me.pmod_desc with
      | Pmod_ident { txt; _ } -> strip_stdlib (lid_parts txt) = [ "Atomic" ]
      | _ -> false
    in
    (* pass 1: aliases and opens (any depth) *)
    let it =
      {
        Ast_iterator.default_iterator with
        module_binding =
          (fun self mb ->
            (if is_atomic_module_expr mb.pmb_expr then begin
               (match mb.pmb_name.txt with
               | Some n -> aliases := SSet.add n !aliases
               | None -> ());
               emit mb.pmb_loc
                 "module alias of Atomic: the aliased operations bypass the \
                  Repro_shim.Tatomic shim"
             end);
            Ast_iterator.default_iterator.module_binding self mb);
        open_declaration =
          (fun self od ->
            if is_atomic_module_expr od.popen_expr then
              emit od.popen_loc
                "open of Atomic puts raw atomic operations in scope, \
                 bypassing the Repro_shim.Tatomic shim";
            Ast_iterator.default_iterator.open_declaration self od);
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_letmodule ({ txt = Some n; _ }, me, _)
              when is_atomic_module_expr me ->
                aliases := SSet.add n !aliases;
                emit e.pexp_loc
                  "local module alias of Atomic bypasses the \
                   Repro_shim.Tatomic shim"
            | _ -> ());
            Ast_iterator.default_iterator.expr self e);
      }
    in
    it.structure it str;
    (* pass 2: uses, in expressions and in types *)
    let flag_lid loc lid =
      let parts = strip_stdlib (lid_parts lid) in
      match parts with
      | "Atomic" :: _ :: _ ->
          emit loc
            (Printf.sprintf
               "raw %s: go through the Repro_shim.Tatomic shim so lib/check \
                can trace it"
               (dotted parts))
      | [ "Obj"; "magic" ] -> emit loc "Obj.magic defeats the type system"
      | head :: _ :: _ when SSet.mem head !aliases ->
          emit loc
            (Printf.sprintf
               "%s goes through a local alias of Atomic, bypassing the \
                Repro_shim.Tatomic shim"
               (dotted parts))
      | _ -> ()
    in
    let it2 =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_ident { txt; loc } -> flag_lid loc txt
            | _ -> ());
            Ast_iterator.default_iterator.expr self e);
        typ =
          (fun self t ->
            (match t.ptyp_desc with
            | Ptyp_constr ({ txt; loc }, _) -> flag_lid loc txt
            | _ -> ());
            Ast_iterator.default_iterator.typ self t);
      }
    in
    it2.structure it2 str;
    !acc
  in
  {
    id;
    severity;
    doc =
      "raw Atomic operations (including Stdlib.Atomic, module aliases and \
       opens) and Obj.magic are forbidden outside lib/shim and lib/check";
    hint;
    exempt = (fun p -> path_has "lib/shim/" p || path_has "lib/check/" p);
    kind = File check;
  }

(* ================ rule: metrics-discipline ================ *)

(* A module-level [let hits = ref 0] or [let hits = A.make 0] is an
   ad-hoc tally: invisible to [Repro_metrics] snapshots, exporters,
   the merged dist view and the health detectors, and (for the plain
   ref) racy the moment two domains touch it.  Instance-local counters
   are fine — only {e top-level} bindings initialised from an integer
   literal are flagged, because those are process-lifetime tallies by
   construction.  lib/metrics itself implements the registry; lib/shim
   and lib/check sit below it. *)

let metrics_discipline =
  let id = "metrics-discipline" in
  let severity = Finding.Warning in
  let hint =
    "register the tally in the Repro_metrics registry (counter/gauge) so it \
     shows up in snapshots, exporters and health detectors"
  in
  let check ~file str =
    let acc = ref [] in
    let emit loc msg =
      acc := mk ~rule:id ~severity ~hint ~file loc msg :: !acc
    in
    (* alias pass: any [module A = ...Tatomic...] (the sanctioned shim
       spelling) or [module A = Atomic] makes [A.make 0] a tally too *)
    let aliases = ref (SSet.singleton "Atomic") in
    let it =
      {
        Ast_iterator.default_iterator with
        module_binding =
          (fun self mb ->
            (match (mb.pmb_expr.pmod_desc, mb.pmb_name.txt) with
            | Pmod_ident { txt; _ }, Some n ->
                let parts = strip_stdlib (lid_parts txt) in
                if List.mem "Tatomic" parts || parts = [ "Atomic" ] then
                  aliases := SSet.add n !aliases
            | _ -> ());
            Ast_iterator.default_iterator.module_binding self mb);
      }
    in
    it.structure it str;
    let is_int_literal e =
      match e.pexp_desc with
      | Pexp_constant (Pconst_integer _) -> true
      | _ -> false
    in
    let check_binding vb =
      match vb.pvb_expr.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, arg) ])
        when is_int_literal arg -> (
          match strip_stdlib (lid_parts txt) with
          | [ "ref" ] ->
              emit vb.pvb_loc
                "module-level int ref tally: unshared with the metrics \
                 registry and racy across domains"
          | head :: _ :: _ as parts
            when List.rev parts |> List.hd = "make"
                 && (SSet.mem head !aliases || List.mem "Tatomic" parts) ->
              emit vb.pvb_loc
                (Printf.sprintf
                   "module-level atomic tally (%s): counted nowhere the \
                    metrics registry can see"
                   (dotted parts))
          | _ -> ())
      | _ -> ()
    in
    (* only module-level items (including nested top-level modules):
       bindings inside functions are per-instance state, not tallies *)
    let rec check_items items =
      List.iter
        (fun si ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) -> List.iter check_binding vbs
          | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ }
            ->
              check_items s
          | Pstr_recmodule mbs ->
              List.iter
                (fun mb ->
                  match mb.pmb_expr.pmod_desc with
                  | Pmod_structure s -> check_items s
                  | _ -> ())
                mbs
          | _ -> ())
        items
    in
    check_items str;
    !acc
  in
  {
    id;
    severity;
    doc =
      "module-level int ref / Atomic tallies outside lib/metrics bypass the \
       metrics registry (snapshots, exporters, health detectors)";
    hint;
    exempt =
      (fun p ->
        path_has "lib/metrics/" p || path_has "lib/shim/" p
        || path_has "lib/check/" p);
    kind = File check;
  }

(* ================ rule 3: blocking-in-worker (linked) ================ *)

(* A pool worker that blocks the OS thread starves every spark behind
   it — and, if the blocked operation waits on another spark, can
   deadlock the pool.  Roots are the conventional worker entry points
   ([worker_loop], [idle_wait]) plus any lambda passed to
   [Domain.spawn]; reachability follows the {e linked} call graph, so a
   blocking primitive two modules away from the loop is found, located
   at the primitive itself.  Edges into exempt files are dropped:
   lib/check deliberately models blocking inside its simulated
   workers. *)

let blocking_exempt p = path_has "lib/check/" p

let blocking_in_worker =
  let id = "blocking-in-worker" in
  let severity = Finding.Warning in
  let hint =
    "replace the blocking call with helping (run pending sparks), bounded \
     backoff, or the pool's parking handshake; baseline designed blocking \
     points with a justification"
  in
  let check (program : Linker.program) =
    Linker.blocking_from_workers program ~roots_from:program.Linker.files
      ~skip_file:blocking_exempt
    |> List.map (fun (w : Linker.blocking_witness) ->
           mkl ~rule:id ~severity ~hint ~file:w.Linker.b_file w.Linker.b_loc
             (Printf.sprintf
                "%s is reachable from a pool worker loop and blocks the OS \
                 thread (starving every spark behind it)"
                w.Linker.b_prim))
  in
  {
    id;
    severity;
    doc =
      "blocking primitives (Unix.sleep, Mutex.lock, Condition.wait, channel \
       reads, ...) reachable from worker-loop bodies — across module \
       boundaries — stall the executor";
    hint;
    exempt = blocking_exempt;
    kind = Linked check;
  }

(* ================ rules 4 & 5: discarded results ================ *)

(* Shared detector for "this application's result is discarded":
   [ignore e], [ignore @@ e], [e |> ignore], [let _ = e], and
   sequence position [e; ...]. *)

let is_ignore_fn e =
  match expr_ident e with Some [ "ignore" ] | Some [ "Stdlib"; "ignore" ] -> true | _ -> false

let discard_findings ~is_target str f =
  let target e =
    match e.pexp_desc with
    | Pexp_apply (fn, _) -> (
        match expr_ident fn with
        | Some parts -> is_target (strip_stdlib parts)
        | None -> false)
    | _ -> false
  in
  iter_exprs str (fun e ->
      match e.pexp_desc with
      | Pexp_apply (fn, [ (_, arg) ]) when is_ignore_fn fn && target arg ->
          f arg.pexp_loc "ignored"
      | Pexp_apply (op, [ (_, a); (_, b) ]) -> (
          match expr_ident op with
          | Some [ "@@" ] when is_ignore_fn a && target b ->
              f b.pexp_loc "ignored"
          | Some [ "|>" ] when is_ignore_fn b && target a ->
              f a.pexp_loc "ignored"
          | _ -> ())
      | Pexp_sequence (e1, _) when target e1 ->
          f e1.pexp_loc "discarded in sequence position"
      | _ -> ());
  iter_value_bindings str (fun vb ->
      if is_wildcard vb.pvb_pat && target vb.pvb_expr then
        f vb.pvb_expr.pexp_loc "bound to a wildcard")

let discarded_future =
  let id = "discarded-future" in
  let severity = Finding.Warning in
  let hint =
    "bind the future and force it (Future.force) on some path, so its \
     exceptions and result can be observed"
  in
  let check ~file str =
    let acc = ref [] in
    discard_findings
      ~is_target:(fun parts ->
        match last_part parts with Some "spark" -> true | _ -> false)
      str
      (fun loc how ->
        acc :=
          mk ~rule:id ~severity ~hint ~file loc
            (Printf.sprintf
               "Future value %s: if its closure raises, the exception is \
                silently lost (Failed futures only re-raise on force)"
               how)
          :: !acc);
    !acc
  in
  {
    id;
    severity;
    doc =
      "a Future.spark result that is ignored or unbound can never be \
       forced, so exceptions raised by its closure are silently dropped";
    hint;
    exempt = no_exempt;
    kind = File check;
  }

let unjoined_domain =
  let id = "unjoined-domain" in
  let severity = Finding.Error in
  let hint =
    "bind the Domain.spawn result and Domain.join it before shutdown so \
     termination invariants stay enforceable"
  in
  let check ~file str =
    let acc = ref [] in
    discard_findings
      ~is_target:(fun parts -> parts = [ "Domain"; "spawn" ])
      str
      (fun loc how ->
        acc :=
          mk ~rule:id ~severity ~hint ~file loc
            (Printf.sprintf
               "Domain.spawn handle %s: the domain can never be joined, so \
                shutdown invariants (spark ledger, quiescence) are \
                unenforceable"
               how)
          :: !acc);
    !acc
  in
  {
    id;
    severity;
    doc =
      "a Domain.spawn whose handle is ignored, wildcard-bound or discarded \
       in sequence position can never be joined";
    hint;
    exempt = no_exempt;
    kind = File check;
  }

(* ================ rule 6: marshal-safety (linked) ================ *)

(* A closure handed to [Farm.farm] (or marshalled with
   [Marshal.Closures]) is byte-copied into a worker with a private
   heap.  Three things silently go wrong:

   - a captured [Unix.file_descr] is an integer naming a kernel object
     the worker does not have — the copy is dead;
   - a captured [Mutex.t]/[Condition.t]/[Atomic.t] is a fresh private
     copy — the worker "synchronises" against nothing; Bigarrays are
     custom blocks [Marshal] refuses outright;
   - a write to captured module-level state lands on the worker's
     snapshot and never reaches the coordinator.

   The capture's resolution runs through the linked taint fixpoint, so
   an fd threaded through a helper module ([let fd = Helper.log_fd])
   is still caught.  Blind spots: resources inside containers (a
   [fd list]) and captures of function {e results} computed at call
   time. *)

let marshal_safety =
  let id = "marshal-safety" in
  let severity = Finding.Error in
  let hint =
    "pass the resource's *name* (a path, a key) and re-open it worker-side, \
     or return results through the protocol instead of writing captured state"
  in
  let check (program : Linker.program) =
    List.concat_map
      (fun (s : Summary.t) ->
        List.concat_map
          (fun (m : Summary.marshal_site) ->
            let cap_findings =
              List.filter_map
                (fun (c : Summary.capture) ->
                  match
                    Linker.capture_taint program ~from:s c.Summary.c_parts
                  with
                  | Some witness ->
                      Some
                        (mkl ~rule:id ~severity ~hint ~file:s.Summary.s_file
                           c.Summary.c_loc
                           (Printf.sprintf
                              "closure passed to %s captures %s, which holds \
                               %s: the marshalled copy is dead or private on \
                               the worker"
                              m.Summary.m_entry c.Summary.c_name witness))
                  | None -> None)
                m.Summary.m_captures
            in
            let write_findings =
              List.filter_map
                (fun (w : Summary.capture) ->
                  if Linker.capture_is_global program ~from:s w.Summary.c_parts
                  then
                    Some
                      (mkl ~rule:id ~severity ~hint ~file:s.Summary.s_file
                         w.Summary.c_loc
                         (Printf.sprintf
                            "closure passed to %s writes captured module \
                             state %s: on a private-heap worker the write \
                             lands on a marshalled snapshot and is silently \
                             lost"
                            m.Summary.m_entry w.Summary.c_name))
                  else None)
                m.Summary.m_writes
            in
            cap_findings @ write_findings)
          s.Summary.s_marshal_sites)
      program.Linker.files
  in
  {
    id;
    severity;
    doc =
      "closures crossing a process boundary (Farm.farm, Marshal.Closures) \
       must not capture fds, locks, atomics or Bigarrays, nor write captured \
       module state";
    hint;
    (* lib/check farms deliberately-hostile closures at the model
       checker; fixture-style violation corpora live under test/. *)
    exempt = (fun p -> path_has "lib/check/" p);
    kind = Linked check;
  }

(* ================ rule 7: ring-discipline (linked) ================ *)

(* The SPSC ring's correctness argument (model-checked in lib/check)
   covers exactly the code inside [Shm_ring]: cursor reads/writes with
   their documented fence pattern, frame Bigarray slicing against a
   published tail.  Cursor arithmetic or frame-plane access anywhere
   else is outside the proof.  Inside the ring module, every publishing
   store (tail/head bump, doorbell arm) must have a [Tatomic.Fence.full]
   in an enclosing binding — the StoreLoad edges of the Dekker
   handshake. *)

let ring_module_file p = Filename.basename p = "shm_ring.ml"

let ring_discipline =
  let id = "ring-discipline" in
  let severity = Finding.Error in
  let hint =
    "go through Shm_ring's API (write_frame/consume/frame slices); if the \
     ring itself changed, pair the store with the documented \
     Tatomic.Fence.full"
  in
  let check (program : Linker.program) =
    List.concat_map
      (fun (s : Summary.t) ->
        if ring_module_file s.Summary.s_file then
          List.map
            (fun (label, loc) ->
              mkl ~rule:id ~severity ~hint ~file:s.Summary.s_file loc
                (Printf.sprintf
                   "store to ring word %s has no Tatomic.Fence.full in its \
                    enclosing binding: the StoreLoad edge of the SPSC/doorbell \
                    handshake is unordered"
                   label))
            s.Summary.s_unfenced_stores
        else
          List.map
            (fun (t : Summary.ring_touch) ->
              mkl ~rule:id ~severity ~hint ~file:s.Summary.s_file
                t.Summary.r_loc
                (Printf.sprintf
                   "%s outside Shm_ring: cursor arithmetic and frame access \
                    are only model-checked inside the ring module"
                   t.Summary.r_desc))
            s.Summary.s_ring_touches)
      program.Linker.files
  in
  {
    id;
    severity;
    doc =
      "ring cursor words and frame Bigarray planes are touched only inside \
       Shm_ring, where every publishing store pairs with the documented fence";
    hint;
    (* the shim defines the word/fence ops themselves; lib/check
       instantiates the ring functor over traced cells. *)
    exempt = (fun p -> path_has "lib/shim/" p || path_has "lib/check/" p);
    kind = Linked check;
  }

(* ================ rule 8: protocol-exhaustiveness (linked) ================ *)

(* A protocol type is a variant [t] declared in a module [M] that also
   defines [recv_t] — the wire decoder.  Every constructor of such a
   type must be handled {e explicitly} by at least one dispatch match
   over a [recv_t] call somewhere in the program: a constructor only
   ever swallowed by wildcards is a send the receiving side will bounce
   as a runtime [Protocol_error].  (Per-site wildcards stay legal —
   the handshake phase of the coordinator deliberately accepts only
   [Ready] — the rule asks that each message be handled *somewhere* on
   the receiving side.) *)

let protocol_exhaustiveness =
  let id = "protocol-exhaustiveness" in
  let severity = Finding.Error in
  let hint =
    "add an explicit match arm for the constructor in the receiving \
     dispatch (or delete the constructor if the message is dead)"
  in
  let check (program : Linker.program) =
    List.concat_map
      (fun (s : Summary.t) ->
        List.concat_map
          (fun (v : Summary.variant_decl) ->
            let recv_name = "recv_" ^ v.Summary.v_type in
            if not (List.mem recv_name s.Summary.s_recv_fns) then []
            else
              let sites =
                List.concat_map
                  (fun (site : Summary.t) ->
                    List.filter
                      (fun (d : Summary.dispatch) ->
                        d.Summary.p_recv = recv_name
                        &&
                        match d.Summary.p_recv_mod with
                        | Some m -> m = s.Summary.s_module
                        | None -> site.Summary.s_module = s.Summary.s_module)
                      site.Summary.s_dispatches)
                  program.Linker.files
              in
              if sites = [] then []
              else
                let handled =
                  List.fold_left
                    (fun acc (d : Summary.dispatch) ->
                      List.fold_left
                        (fun acc c -> SSet.add c acc)
                        acc d.Summary.p_handled)
                    SSet.empty sites
                in
                List.filter_map
                  (fun (cname, cloc) ->
                    if SSet.mem cname handled then None
                    else
                      Some
                        (mkl ~rule:id ~severity ~hint ~file:s.Summary.s_file
                           cloc
                           (Printf.sprintf
                              "constructor %s of %s.%s is never handled \
                               explicitly by any dispatch over %s (%d site%s \
                               checked): receivers bounce it as a runtime \
                               protocol error"
                              cname s.Summary.s_module v.Summary.v_type
                              recv_name (List.length sites)
                              (if List.length sites = 1 then "" else "s"))))
                  v.Summary.v_constrs)
          s.Summary.s_variants)
      program.Linker.files
  in
  {
    id;
    severity;
    doc =
      "every constructor of a wire protocol variant (a type t with a recv_t \
       decoder) is matched explicitly by some receiving dispatch";
    hint;
    exempt = no_exempt;
    kind = Linked check;
  }

(* ======== rules 9-11: flow-sensitive typestate (linked) ======== *)

(* All three run over the per-def CFGs built at summarise time
   (Summary.d_cfg), solved by the Dataflow worklist engine with
   interprocedural effect summaries — see Typestate for the lattices.
   They are Linked rules because the effects flow through the resolved
   cross-module call graph: a helper that publishes the cursor, closes
   the fd, or arms the sleep word transfers that fact into every
   caller's CFG. *)

let typestate_findings ~rule ~severity ~hint vs =
  List.map
    (fun (v : Typestate.violation) ->
      mkl ~rule ~severity ~hint ~file:v.Typestate.v_file v.Typestate.v_loc
        v.Typestate.v_msg)
    vs

let frame_lifetime =
  let id = "frame-lifetime" in
  let severity = Finding.Error in
  let hint =
    "follow acquire -> write -> commit: load the cursor, fill the planes, \
     publish exactly once, and never touch the frame after the publish"
  in
  {
    id;
    severity;
    doc =
      "ring frames follow acquire -> write -> commit: no plane access or \
       second publish after the cursor store, and every written frame is \
       committed on every path out";
    hint;
    (* lib/check instantiates the ring protocols over traced cells and
       deliberately explores violating interleavings *)
    exempt = (fun p -> path_has "lib/check/" p);
    kind = Linked (fun program ->
        typestate_findings ~rule:id ~severity ~hint
          (Typestate.frame_violations program));
  }

let fd_leak =
  let id = "fd-leak" in
  let severity = Finding.Warning in
  let hint =
    "close the descriptor on every path: wrap the body in Fun.protect \
     ~finally:(fun () -> Unix.close fd), or hand ownership to a helper that \
     does"
  in
  {
    id;
    severity;
    doc =
      "file descriptors and channels opened in a function must reach close \
       on every path out, including the exception path";
    hint;
    exempt = (fun p -> path_has "lib/check/" p);
    kind = Linked (fun program ->
        typestate_findings ~rule:id ~severity ~hint
          (Typestate.fd_violations program));
  }

let lost_wakeup =
  let id = "lost-wakeup" in
  let severity = Finding.Error in
  let hint =
    "re-read the guard (atomic load / shared cursor word) after arming the \
     sleep word and before blocking — the Dekker re-check — or clear the \
     sleep word first"
  in
  {
    id;
    severity;
    doc =
      "no OS-level block is reachable after arming a sleep word without \
       re-reading the guard in between: blocking while armed loses wakeups";
    hint;
    (* lib/check deliberately drives lost-wakeup mutants through DPOR *)
    exempt = (fun p -> path_has "lib/check/" p);
    kind = Linked (fun program ->
        typestate_findings ~rule:id ~severity ~hint
          (Typestate.wakeup_violations program));
  }

(* ---------------- registry ---------------- *)

let all =
  [
    spark_purity;
    atomics_discipline;
    metrics_discipline;
    blocking_in_worker;
    discarded_future;
    unjoined_domain;
    marshal_safety;
    ring_discipline;
    protocol_exhaustiveness;
    frame_lifetime;
    fd_leak;
    lost_wakeup;
  ]

let ids = List.map (fun r -> r.id) all

let find id = List.find_opt (fun r -> r.id = id) all

let file_rules rules =
  List.filter_map
    (fun r -> match r.kind with File f -> Some (r, f) | Linked _ -> None)
    rules

let linked_rules rules =
  List.filter_map
    (fun r -> match r.kind with Linked f -> Some (r, f) | File _ -> None)
    rules
