(** The named runtime configurations measured in the paper.

    Fig. 1 compares five "program version and runtime system" rows for
    sumEuler; Figs. 3–5 reuse the same versions (plus the black-holing
    variants) on other machines and workloads.  Each function here
    produces the {!Repro_parrts.Config.t} for one row. *)

module Config = Repro_parrts.Config
module Gc_model = Repro_heap.Gc_model
module Machine = Repro_machine.Machine
module Transport = Repro_mp.Transport

type version = {
  label : string;  (** the paper's row/series label *)
  config : Config.t;
}

(* "GpH in plain GHC-6.9": shared heap, 0.5 MB allocation areas, legacy
   barrier, push-polling balancing, lazy black-holing, one thread per
   spark. *)
let gph_plain ?(machine = Machine.intel8) ?(ncaps = 8) () =
  {
    label = "GpH in plain GHC-6.9";
    config = Config.default ~machine ~ncaps ();
  }

(* "GpH in plain GHC-6.9, big allocation area". *)
let gph_bigalloc ?(machine = Machine.intel8) ?(ncaps = 8) () =
  let base = Config.default ~machine ~ncaps () in
  {
    label = "GpH in plain GHC-6.9, big allocation area";
    config = { base with gc = Gc_model.big_area base.gc };
  }

(* "GpH, above + improved GC synchronisation". *)
let gph_sync ?(machine = Machine.intel8) ?(ncaps = 8) () =
  let base = (gph_bigalloc ~machine ~ncaps ()).config in
  {
    label = "GpH, above + improved GC synchronisation";
    config = { base with gc = Gc_model.improved_sync base.gc };
  }

(* "GpH, above + work stealing for sparks": lock-free deques with
   stealing, plus the spark-thread activation of Sec. IV-A.4 that the
   new system uses. *)
let gph_steal ?(machine = Machine.intel8) ?(ncaps = 8) () =
  let base = (gph_sync ~machine ~ncaps ()).config in
  {
    label = "GpH, above + work stealing for sparks";
    config =
      {
        base with
        load_balance = Config.Work_stealing;
        spark_runner = Config.Spark_threads;
      };
  }

(* Eager black-holing variants (Sec. IV-A.3 / Fig. 5). *)
let with_eager v =
  {
    label = v.label ^ ", eager black-holing";
    config = { v.config with blackholing = Config.Eager_bh };
  }

(* "Eden-6.8.3, N PEs running under PVM": distributed heaps, one per
   (virtual) PE, PVM middleware mapped onto shared memory. *)
let eden ?(machine = Machine.intel8) ?(npes = 8)
    ?(transport = Transport.pvm) () =
  let base = Config.default ~machine ~ncaps:npes () in
  {
    label =
      Printf.sprintf "Eden-6.8.3, %d PEs running under %s" npes
        (String.uppercase_ascii transport.Transport.name);
    config =
      {
        base with
        heap_mode = Config.Distributed transport;
        (* the distributed RTEs are plain sequential GHC runtimes:
           balancing/stealing knobs are irrelevant, sparks unused *)
        load_balance = Config.Push_polling;
      };
  }

(* The five rows of Fig. 1, in table order. *)
let fig1_versions ?(machine = Machine.intel8) ?(ncaps = 8) () =
  [
    gph_plain ~machine ~ncaps ();
    gph_bigalloc ~machine ~ncaps ();
    gph_sync ~machine ~ncaps ();
    gph_steal ~machine ~ncaps ();
    eden ~machine ~npes:ncaps ();
  ]
