(** A point-to-point link over either transport.

    {!Message}, {!Farm} and {!Worker} speak through this sum so the
    whole executor is transport-agnostic — selecting [--transport shm]
    swaps the byte-moving machinery under an unchanged protocol, which
    is the experiment the paper runs when it maps PVM onto shared
    memory.  A sum rather than a first-class module keeps dispatch
    monomorphic (two direct calls) on a path hot enough to care. *)

type t = Sock of Wire.conn | Shm of Shm_ring.conn

let of_fd ~side fd = function
  | None -> Sock (Wire.create ~read_fd:fd ~write_fd:fd ())
  | Some path -> Shm (Shm_ring.attach ~path ~side ~doorbell:fd)

let send = function Sock c -> Wire.send c | Shm c -> Shm_ring.send c

let send_floats = function
  | Sock c -> Wire.send_floats c
  | Shm c -> Shm_ring.send_floats c

let recv = function
  | Sock c -> Wire.recv_message c
  | Shm c -> Shm_ring.recv_message c

let counters = function Sock c -> Wire.counters c | Shm c -> Shm_ring.counters c

(* A receive on the link would not block: input is there, or the peer
   is gone and the receive raises [End_of_file] at once, as a closed
   socket is readable.  An shm peer counts as gone once a doorbell
   drain has read its EOF. *)
let input_ready = function
  | Sock c -> Wire.input_ready c
  | Shm c -> Shm_ring.input_ready c || Shm_ring.peer_gone c

let close = function Sock c -> Wire.close c | Shm c -> Shm_ring.close c

(* The descriptor a waiter blocks on: the socket, or the doorbell. *)
let wait_fd = function Sock c -> Wire.read_fd c | Shm c -> Shm_ring.wait_fd c

(* The readable subset of [fds] after at most [timeout] seconds
   (0 = poll, negative = forever). *)
let rec select_readable fds timeout =
  match Unix.select fds [] [] timeout with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_readable fds timeout

let sock_fds links =
  Array.fold_right
    (fun l acc -> match l with Sock c -> Wire.read_fd c :: acc | Shm _ -> acc)
    links []

(* A sock readiness test is a syscall, so all the sock links share one
   zero-timeout [select]; an shm link's test is a memory load. *)
let ready (links : t array) =
  let readable =
    match sock_fds links with [] -> [] | fds -> select_readable fds 0.0
  in
  List.filter
    (fun i ->
      match links.(i) with
      | Sock c -> List.mem (Wire.read_fd c) readable
      | Shm _ as l -> input_ready l)
    (List.init (Array.length links) Fun.id)

(* The ring wait: spin, then the arm-recheck-block doorbell handshake
   on every link at once. *)
let wait_rings ~timeout (links : t array) =
  let any_ready () = Array.exists input_ready links in
  if not (any_ready ()) then begin
    (* spin a little first: the common case is a peer already mid-send *)
    let spins = ref 0 in
    while (not (any_ready ())) && !spins < 256 do
      incr spins
    done;
    if not (any_ready ()) then begin
      Array.iter (function Shm c -> Shm_ring.prepare_sleep c | Sock _ -> ()) links;
      let disarm () =
        Array.iter
          (function
            | Shm c ->
                Shm_ring.drain_doorbell c;
                Shm_ring.cancel_sleep c
            | Sock _ -> ())
          links
      in
      (* [disarm] drains a dead peer's doorbell EOF, after which
         [ready] lists its link *)
      Fun.protect ~finally:disarm (fun () ->
          if not (any_ready ()) then
            ignore (select_readable (Array.to_list (Array.map wait_fd links)) timeout))
    end
  end

(** Block until some link {e may} have input (spurious wake-ups
    allowed, missed messages not), or [timeout] (seconds, negative =
    forever) elapses.  Over socks alone this is one blocking [select]
    on every descriptor — never a spin, since each sock readiness test
    is itself a syscall; with any shm link it is {!wait_rings}. *)
let wait_any ?(timeout = -1.0) (links : t array) =
  if Array.for_all (function Sock _ -> true | Shm _ -> false) links then
    ignore (select_readable (sock_fds links) timeout)
  else wait_rings ~timeout links
