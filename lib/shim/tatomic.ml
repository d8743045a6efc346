(** The atomics shim every concurrent module in this repo is written
    against ([TRACED_ATOMIC] in the issue tracker's terms).

    Two implementations exist:

    - {!Real}, below: a module {e alias} of [Stdlib.Atomic].  Because it
      is an alias (not a sealed coercion), callers still see the
      compiler primitives ([%atomic_load] etc.) and compile to exactly
      the same machine code as writing [Atomic.get] directly — the
      production path costs nothing.
    - [Repro_check.Sched.Atomic]: a checking implementation that records
      every load/store/CAS/fetch-and-add with its simulated thread id
      and location, and yields to a DPOR model-checking scheduler at
      every operation.

    [Ws_deque], [Future] and [Promise] are functors over this
    signature; their default instances are [Make (Tatomic.Real)].
    [Pool] uses {!Real} directly: [lib/check] checks a distilled copy
    of its park/unpark handshake, not the pool itself.  The [@lint]
    alias (see [tools/lint_atomics.ml]) rejects raw [Atomic.] usage
    anywhere else in library code, so every atomic the executor
    performs is checkable by [lib/check]. *)

module type S = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a

  (** Physical-equality compare-and-set, like [Stdlib.Atomic]. *)
  val compare_and_set : 'a t -> 'a -> 'a -> bool

  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit
end

(** Production implementation: a zero-cost module alias. *)
module Real = Stdlib.Atomic

(* Compile-time check that the alias satisfies the signature without
   sealing it (sealing would hide the primitives). *)
module _ : S = Real

(** A single shared control word, the second shim signature: where {!S}
    abstracts {e intra-process} atomics (OCaml values, CAS), [WORD]
    abstracts a plain machine word that two parties hand values
    through — the head/tail/sleeping words of the shared-memory ring
    transport ([Repro_dist.Shm_ring]), which live in an [mmap]'d file
    and are read and written by {e different processes}.

    Only load and store exist: a correct SPSC ring never needs
    read-modify-write on its cursors (each word has exactly one
    writer).  Two implementations:

    - [Repro_dist.Shm_ring.Mapped_word]: an 8-byte-aligned slot of the
      mapped segment (a [Bigarray] int64 element — aligned word loads
      and stores, which are single instructions on every 64-bit
      target).
    - [Repro_check.Sched.Atomic]-backed cells: the model checker
      instantiates the very same ring protocol functor with traced
      cells, so DPOR explores the production claim/publish/consume
      ordering (see [Repro_check.Protocols]'s spsc-ring configs). *)
module type WORD = sig
  type t

  val load : t -> int
  val store : t -> int -> unit
end

(** Full memory barrier for the Dekker-style sleeper handshake of the
    ring doorbell (consumer: store [sleeping]=1 {e then} load [tail];
    producer: store [tail] {e then} load [sleeping]).  Plain mapped
    stores and loads may be reordered across each other (StoreLoad) by
    both the hardware and the compiler.  An [Atomic] operation is not
    enough here: OCaml 5.1 runs [Atomic.exchange] as a plain load and
    store while the process has a single domain, which every PE and
    the farm coordinator are.  [full] is therefore a C call to
    [atomic_thread_fence(memory_order_seq_cst)] ([mfence] on x86-64,
    [dmb ish] on AArch64); an external call is also a compiler barrier.
    Each ring side still owns a [t], but the fence never reads or
    writes it. *)
module Fence = struct
  type t = int Real.t

  let create () : t = Real.make 0

  external full : t -> unit = "repro_fence_full" [@@noalloc]
end
