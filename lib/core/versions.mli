(** The named runtime configurations measured in the paper: the five
    rows of Fig. 1 plus the black-holing variants of Fig. 5. *)

type version = {
  label : string;  (** the paper's row/series label *)
  config : Repro_parrts.Config.t;
}

(** "GpH in plain GHC-6.9": 0.5 MB allocation areas, legacy barrier,
    push-polling, lazy black-holing, thread-per-spark. *)
val gph_plain :
  ?machine:Repro_machine.Machine.t -> ?ncaps:int -> unit -> version

(** + big allocation area (8 MB). *)
val gph_bigalloc :
  ?machine:Repro_machine.Machine.t -> ?ncaps:int -> unit -> version

(** + improved GC synchronisation. *)
val gph_sync :
  ?machine:Repro_machine.Machine.t -> ?ncaps:int -> unit -> version

(** + work stealing for sparks (with spark threads, Sec. IV-A.4). *)
val gph_steal :
  ?machine:Repro_machine.Machine.t -> ?ncaps:int -> unit -> version

(** Switch any version to eager black-holing (Sec. IV-A.3). *)
val with_eager : version -> version

(** "Eden-6.8.3, N PEs running under PVM": distributed per-PE heaps on
    the given middleware. *)
val eden :
  ?machine:Repro_machine.Machine.t ->
  ?npes:int ->
  ?transport:Repro_mp.Transport.t ->
  unit ->
  version

(** The five rows of Fig. 1, in table order. *)
val fig1_versions :
  ?machine:Repro_machine.Machine.t -> ?ncaps:int -> unit -> version list
