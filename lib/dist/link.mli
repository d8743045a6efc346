(** A point-to-point link over either transport ({!Wire} socketpair or
    {!Shm_ring}), so the protocol layers above are transport-agnostic. *)

type t = Sock of Wire.conn | Shm of Shm_ring.conn

(** [of_fd ~side fd seg] is the link over descriptor [fd], one end of a
    socketpair: the socket itself ([seg = None]), or the shm segment at
    path [seg]'s [side] with [fd] as its doorbell. *)
val of_fd : side:[ `A | `B ] -> Unix.file_descr -> string option -> t

val send : t -> string -> unit

(** [send_floats l x y arr]: one float message whose header carries [x]
    and [y] (see {!Wire.send_floats}). *)
val send_floats : t -> int -> int -> float array -> unit

(** The next message, on whichever plane it was sent. *)
val recv : t -> Wire.message
val counters : t -> Wire.counters
val close : t -> unit

(** Indices of the links with input available now, in ascending order,
    without blocking.  One zero-timeout [select] tests every sock link
    at once; an shm link's test is a memory load.  A pump takes one
    message from each ready link and asks again.  A link whose peer is
    gone is ready too, as a closed socket is readable: its {!recv}
    raises [End_of_file] at once, so the caller learns which peer
    died. *)
val ready : t array -> int list

(** Block until some link {e may} have input (spurious wake-ups
    allowed, missed messages never), or [timeout] seconds (negative =
    forever) pass.  When every link is a sock this is a single blocking
    [select] over their descriptors: a sock readiness test is a
    syscall, so it is never spun on.  With any shm link it is the ring
    handshake — a short spin on the rings, then arm every doorbell,
    recheck and block on every doorbell at once.  A peer's death wakes
    it, and {!ready} then lists that peer's link. *)
val wait_any : ?timeout:float -> t array -> unit
