(** Message-passing middleware cost profiles (paper Sec. III-B): the
    distributed-heap runtimes sit on pluggable middleware — typically
    PVM or MPI, mapped onto shared memory on a multicore.  A transport
    is purely a cost profile charged by the runtime simulator when PEs
    exchange messages. *)

type t = {
  name : string;
  latency_ns : int;  (** per-message end-to-end middleware latency *)
  per_message_ns : int;  (** fixed send-side overhead per packet *)
  wire_ns_per_byte : float;
  pack_ns_per_byte : float;  (** serialisation, charged to the sender *)
  unpack_ns_per_byte : float;  (** deserialisation, on the receiver *)
  packet_bytes : int;  (** messages are split into packets *)
}

(** PVM: the heaviest per-message path (the paper's Eden runs). *)
val pvm : t

(** MPI: lighter-weight than PVM. *)
val mpi : t

(** Idealised custom shared-memory middleware. *)
val shm : t

(** One of the three profiles above, by its [name].
    @raise Invalid_argument for unknown names. *)
val by_name : string -> t

(** Packets needed for a payload (at least 1). *)
val packets : t -> int -> int

(** Send-side cost (packing + per-packet overheads), ns. *)
val send_side_ns : t -> int -> int

(** In-flight delay between send completion and delivery, ns. *)
val flight_ns : t -> int -> int

(** Receive-side unpack cost, ns. *)
val recv_side_ns : t -> int -> int
