(** The runtime-system simulator: GHC's threaded RTS (shared-heap GpH
    configurations) and the Eden PE runtime (distributed-heap
    configurations), at the level of abstraction the paper analyses.

    Capabilities (= PEs) schedule lightweight threads implemented as
    OCaml 5 effect-handler fibers.  Thread code charges virtual work
    and allocation through {!Api}; safepoint checks happen once per
    4 kB of allocation; GC is stop-the-world behind a barrier (shared
    heap) or per-PE (distributed); sparks are balanced by push-polling
    or lock-free work stealing, and surplus threads migrate to idle
    capabilities of a shared heap; sparks are activated by fresh
    threads or dedicated spark threads; messages cost what the
    configured middleware profile says.  All fiber execution happens
    inside engine events, so runs are fully deterministic.

    Typical use:
    {[
      let version = Repro_core.Versions.gph_steal ~ncaps:8 () in
      let value, report = Rts.run version.config (fun () -> my_workload ())
    ]} *)

type t
(** A running simulation instance (one per {!run}). *)

exception Deadlock of string
(** Raised by {!run} when the event queue drains before the main
    thread finishes; the payload is a diagnostic summary. *)

(** [run config main]: execute [main] as the main thread on capability
    0 of a fresh simulated runtime; returns [main]'s result and the run
    report.  Nested runs are rejected. *)
val run : Config.t -> (unit -> 'a) -> 'a * Report.t

(** The currently-running instance (for library code called from
    simulated threads, e.g. the Eden layer).
    @raise Failure outside a simulation. *)
val instance : unit -> t

(** [spawn_raw rts ~cap body]: create a thread on capability [cap]
    without charging anyone (used by message-delivery handlers that
    run in scheduler context, e.g. Eden process instantiation).
    Returns the thread id. *)
val spawn_raw : t -> cap:int -> (unit -> unit) -> int

(** Operations available to simulated thread code.  All of these must
    be called from inside a thread of the current {!run}. *)
module Api : sig
  (** Consume virtual work/allocation.  Allocation drives safepoint
      checks (GC requests, timeslice, lazy black-holing). *)
  val charge : Repro_util.Cost.t -> unit

  (** [block register]: deschedule this thread; [register wake] is
      called once with the callback that makes it runnable again. *)
  val block : ((unit -> unit) -> unit) -> unit

  val my_cap : unit -> int
  val now_ns : unit -> int
  val ncaps : unit -> int
  val registry : unit -> Repro_heap.Node.registry
  val blackholing : unit -> Config.blackholing

  (** GpH [par]: record a spark in the current capability's pool.
      [still_needed] lets the activation fizzle if the sparked value
      was meanwhile evaluated. *)
  val spark : still_needed:(unit -> bool) -> (unit -> unit) -> unit

  (** Create a lightweight thread (on the current capability by
      default), charging creation cost to the caller. *)
  val spawn : ?cap:int -> (unit -> unit) -> int

  (** Declare live data so the GC and cache models see it (per-PE in
      distributed mode, global otherwise). *)
  val set_resident : int -> unit

  val set_resident_global : int -> unit
  val set_resident_of : cap:int -> int -> unit

  (** Send [bytes] to PE [dst] (distributed mode): the caller pays
      packing, the receiver's heap receives the data, then [deliver]
      runs there.
      @raise Invalid_argument outside distributed mode. *)
  val send : dst:int -> bytes:int -> (unit -> unit) -> unit

  (** Update-stack bookkeeping used by {!Repro_core.Gph.force} for
      retroactive lazy black-holing. *)
  val push_update : Repro_heap.Node.boxed -> unit

  val pop_update : unit -> unit
end
