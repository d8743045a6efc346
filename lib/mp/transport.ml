(** Message-passing middleware cost profiles.

    The paper's distributed-heap implementations (Sec. III-B) sit on a
    message-passing layer "designed to allow plug-in replacement of
    different message-passing libraries" — typically PVM or MPI, with
    shared-memory implementations used on multicores.  A transport here
    is purely a cost profile: the runtime simulator charges these costs
    when PEs exchange messages.

    Costs are split into:
    - [pack_ns_per_byte]: serialisation of the subgraph into packets,
      charged to the {e sending thread} as mutator work;
    - [latency_ns]: per-message end-to-end latency through the
      middleware (on a multicore this is the cost of the middleware
      stack, not a network);
    - [wire_ns_per_byte]: per-byte transfer cost;
    - [unpack_ns_per_byte]: deserialisation charged on the receiver.

    The numbers model shared-memory operation (processes on one
    machine); PVM has a noticeably heavier per-message path than MPI,
    and the idealised [shm] transport models a hand-written
    shared-memory middleware. *)

type t = {
  name : string;
  latency_ns : int;
  per_message_ns : int;  (** fixed send-side overhead *)
  wire_ns_per_byte : float;
  pack_ns_per_byte : float;
  unpack_ns_per_byte : float;
  packet_bytes : int;  (** messages are split into packets of this size *)
}

let pvm =
  {
    name = "pvm";
    latency_ns = 25_000;
    per_message_ns = 6_000;
    wire_ns_per_byte = 0.45;
    pack_ns_per_byte = 0.55;
    unpack_ns_per_byte = 0.45;
    packet_bytes = 32 * 1024;
  }

let mpi =
  {
    name = "mpi";
    latency_ns = 9_000;
    per_message_ns = 2_500;
    wire_ns_per_byte = 0.30;
    pack_ns_per_byte = 0.55;
    unpack_ns_per_byte = 0.45;
    packet_bytes = 64 * 1024;
  }

(* Idealised custom shared-memory middleware. *)
let shm =
  {
    name = "shm";
    latency_ns = 1_500;
    per_message_ns = 600;
    wire_ns_per_byte = 0.12;
    pack_ns_per_byte = 0.50;
    unpack_ns_per_byte = 0.40;
    packet_bytes = 64 * 1024;
  }

let all = [ pvm; mpi; shm ]

let by_name name =
  match List.find_opt (fun t -> t.name = name) all with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Transport.by_name: unknown %S" name)

(* Number of packets a [bytes]-sized payload needs. *)
let packets t bytes = max 1 ((bytes + t.packet_bytes - 1) / t.packet_bytes)

(* Send-side cost in cycles-free nanoseconds (charged as virtual time
   to the sending thread): packing plus per-packet overheads. *)
let send_side_ns t bytes =
  let pk = packets t bytes in
  (pk * t.per_message_ns)
  + int_of_float (t.pack_ns_per_byte *. float_of_int bytes)

(* In-flight delay between send completion and delivery. *)
let flight_ns t bytes =
  t.latency_ns + int_of_float (t.wire_ns_per_byte *. float_of_int bytes)

(* Receive-side cost charged to the receiving PE on delivery. *)
let recv_side_ns t bytes =
  int_of_float (t.unpack_ns_per_byte *. float_of_int bytes)
