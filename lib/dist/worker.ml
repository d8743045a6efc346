(** The PE-side of the distributed executor.

    A worker is a {e fresh process} started with
    [Unix.create_process] — not a fork: OCaml 5 forbids forking once
    any domain has ever been created in the process, and the host
    binaries spawn domains for the shared-memory backend.  The
    coordinator re-executes its own binary with {!marker} as the first
    argument; host executables must call {!maybe_run} before their
    normal entry point.  One end of a socketpair becomes the child's
    stdin and carries {e both} directions (a socketpair is full
    duplex).  Stdout and stderr pass through untouched — anything the
    binary prints before {!maybe_run} runs (a test runner announcing a
    random seed, say) lands on the console instead of corrupting the
    wire.

    Over the socketpair transport that stdin descriptor {e is} the
    message channel.  Over the shm transport it is only the doorbell:
    messages flow through an mmap'd ring segment whose path arrives as
    an argv token after {!marker} ([shm=PATH]).

    On two or more PEs, a PE also holds its two edges of the PEs' ring
    (Eden's ring skeleton): [in=FD] from its left neighbour and
    [out=FD] to its right one, descriptors it inherits, plus over shm
    each edge's segment ([in=FD:PATH], the descriptor then being the
    edge's doorbell).  The transport changes only how bytes move: over
    both, the PE runs one loop, a blocking receive from the coordinator
    and a result back to it for each task.  A running task's relay
    handle ({!Workload.relay}) sends the task's rows on the out-edge
    and blocks on the in-edge for the others', forwarding each to the
    right unless the right neighbour made it.  So a PE sends on its
    out-edge in increasing row number (rows arrive in that order, and
    a task sends its own row [k] only after receiving every row before
    [k]), and never back to a row's origin: no cycle of blocked
    senders can form, even when an edge buffers less than one row.
    [exec_ns] leaves the blocking receives out.

    The PE owns a fully private OCaml heap with its own GC — the
    defining property of the Eden/GUM model this backend realises —
    and reports its GC counter deltas back in [Stats]. *)

let marker = "--dist-worker"
let default_argv () = [| Sys.executable_name; marker |]

let is_worker_invocation argv = Array.length argv >= 2 && argv.(1) = marker

(* One executed task: the result payload plus the phase
   timestamps/durations a trace span needs. *)
type executed = {
  out : Message.payload;
  unpack_ns : int;
  exec_start_ns : int;
  exec_end_ns : int;
  pack_ns : int;
}

(* The running task's relay over the PE's ring edges, [(inn, out)]:
   its own rows go out, every other row comes in and is passed on to
   the right unless the right neighbour made it.  Each blocking receive
   is pushed on [waits] as [(start, stop)], so it counts as waiting,
   not compute.  On one PE there is no ring and nobody to relay to. *)
let relay_over ring ~pe ~procs ~waits : Workload.relay =
  match ring with
  | None ->
      {
        send = (fun _ _ -> ());
        recv = (fun () -> failwith "dist worker: relay receive on the only PE");
      }
  | Some (inn, out) ->
      let right = (pe + 1) mod procs in
      let recv () =
        let t0 = Clock.now_ns () in
        let k, origin, row = Message.recv_row inn in
        waits := (t0, Clock.now_ns ()) :: !waits;
        if origin <> right then Message.send_row out ~k ~origin row;
        (k, row)
      in
      { send = (fun k row -> Message.send_row out ~k ~origin:pe row); recv }

(* Build the payload -> executed function once per session.  Workload
   mode looks the workload up in the registry and round-trips typed
   task/result values — through the blob codec when the workload
   declares one, so bulk float results skip [Marshal] on both
   transports; [Closures] mode expects a marshalled [unit -> string]
   whose output is already the result payload. *)
let executor (mode : Message.mode) relay : string -> executed =
  match mode with
  | Message.Workload { name; size } -> (
      match Workload.find name with
      | None -> failwith (Printf.sprintf "dist worker: unknown workload %S" name)
      | Some (module W) ->
          fun payload ->
            let t0 = Clock.now_ns () in
            let task : W.task = Marshal.from_string payload 0 in
            let t1 = Clock.now_ns () in
            let r = W.execute ~size relay task in
            let t2 = Clock.now_ns () in
            let out =
              match W.result_blob with
              | Some (enc, _) -> Message.Floats_p (enc r)
              | None -> Message.Bytes_p (Marshal.to_string r [])
            in
            let t3 = Clock.now_ns () in
            {
              out;
              unpack_ns = t1 - t0;
              exec_start_ns = t1;
              exec_end_ns = t2;
              pack_ns = t3 - t2;
            })
  | Message.Closures ->
      fun payload ->
        let t0 = Clock.now_ns () in
        let f : unit -> string = Marshal.from_string payload 0 in
        let t1 = Clock.now_ns () in
        let out = f () in
        let t2 = Clock.now_ns () in
        {
          out = Message.Bytes_p out;
          unpack_ns = t1 - t0;
          exec_start_ns = t1;
          exec_end_ns = t2;
          pack_ns = 0;
        }

(* A traced PE records the slices of its first [max_traced_tasks]
   tasks and counts the rest in [spans_dropped]. *)
let max_traced_tasks = 8192

(* ---------------- session state ---------------- *)

type session = {
  hello : Message.hello;
  links : Link.t list;  (** the coordinator's, then the ring edges *)
  execute : string -> executed;
  waits : (int * int) list ref;  (** the running task's, newest first *)
  gc0 : Gc.stat;
  mw0 : float;
  mutable tasks_executed : int;
  mutable exec_ns : int;
  mutable spans : Repro_trace.Chrome.span list;  (** newest first *)
  mutable traced : int;  (** tasks whose slices [spans] holds *)
  mutable spans_dropped : int;
}

let start_session hello conn ring =
  let waits = ref [] in
  let { Message.pe; procs; mode; _ } = hello in
  {
    hello;
    links = conn :: (match ring with Some (inn, out) -> [ inn; out ] | None -> []);
    execute = executor mode (relay_over ring ~pe ~procs ~waits);
    waits;
    gc0 = Gc.quick_stat ();
    (* [quick_stat]'s [minor_words] only advances at collection
       boundaries; [Gc.minor_words] reads the live allocation pointer,
       which matters in a worker too short-lived to ever minor-collect. *)
    mw0 = Gc.minor_words ();
    tasks_executed = 0;
    exec_ns = 0;
    spans = [];
    traced = 0;
    spans_dropped = 0;
  }

(* Execute one task payload and push its result (blob-aware) to the
   coordinator. *)
let run_task s ~coord ~task_id ~round payload =
  let recv_done_ns = Clock.now_ns () in
  s.waits := [];
  let e = s.execute payload in
  let waits = List.rev !(s.waits) in
  let c = Link.counters coord in
  c.Wire.unpack_ns <- c.Wire.unpack_ns + e.unpack_ns;
  c.Wire.pack_ns <- c.Wire.pack_ns + e.pack_ns;
  let waited = List.fold_left (fun acc (t0, t1) -> acc + (t1 - t0)) 0 waits in
  s.exec_ns <- s.exec_ns + (e.exec_end_ns - e.exec_start_ns) - waited;
  s.tasks_executed <- s.tasks_executed + 1;
  if s.hello.Message.trace then
    if s.traced < max_traced_tasks then begin
      s.traced <- s.traced + 1;
      let slice ?(args = []) name cat t0 t1 =
        {
          Repro_trace.Chrome.tid = s.hello.Message.pe;
          name;
          cat;
          ts_ns = t0;
          dur_ns = Some (t1 - t0);
          args;
        }
      in
      let unpack =
        slice ~args:[ ("task", Repro_util.Json_out.Int task_id) ] "unpack" "pack"
          recv_done_ns e.exec_start_ns
      in
      s.spans <-
        slice "pack" "pack" e.exec_end_ns (e.exec_end_ns + e.pack_ns)
        :: List.rev_map (fun (w0, w1) -> slice "wait" "net" w0 w1) waits
        @ slice "task" "exec" e.exec_start_ns e.exec_end_ns
          :: unpack :: s.spans
    end
    else s.spans_dropped <- s.spans_dropped + 1;
  Message.send_result coord ~task_id ~round e.out

(* The session's counters, summed over the PE's links. *)
let stats_of_session s : Message.worker_stats =
  let gc1 = Gc.quick_stat () in
  let sum f = List.fold_left (fun acc l -> acc + f (Link.counters l)) 0 s.links in
  {
    Message.stats_pe = s.hello.Message.pe;
    tasks_executed = s.tasks_executed;
    msgs_sent = sum (fun c -> c.Wire.msgs_sent);
    msgs_recv = sum (fun c -> c.Wire.msgs_recv);
    bytes_sent = sum (fun c -> c.Wire.bytes_sent);
    bytes_recv = sum (fun c -> c.Wire.bytes_recv);
    packets_sent = sum (fun c -> c.Wire.packets_sent);
    packets_recv = sum (fun c -> c.Wire.packets_recv);
    payload_bytes_sent = sum (fun c -> c.Wire.payload_bytes_sent);
    payload_bytes_recv = sum (fun c -> c.Wire.payload_bytes_recv);
    zero_copy_bytes_sent = sum (fun c -> c.Wire.zero_copy_bytes_sent);
    zero_copy_bytes_recv = sum (fun c -> c.Wire.zero_copy_bytes_recv);
    pack_ns = sum (fun c -> c.Wire.pack_ns);
    unpack_ns = sum (fun c -> c.Wire.unpack_ns);
    exec_ns = s.exec_ns;
    gc_minor_collections =
      (Gc.quick_stat ()).minor_collections - s.gc0.minor_collections;
    gc_major_collections = gc1.major_collections - s.gc0.major_collections;
    gc_minor_words = Gc.minor_words () -. s.mw0;
    gc_promoted_words = gc1.promoted_words -. s.gc0.promoted_words;
    spans = List.rev s.spans;
    spans_dropped = s.spans_dropped;
    (* the whole default registry, not a hand-picked subset: whatever
       collectors the PE process registered (link counters, wire
       errors, GC) travel to the coordinator in one snapshot *)
    metrics = Repro_metrics.Metrics.snapshot ();
  }

(* ---------------- the PE loop ---------------- *)

(* On Unix a [Unix.file_descr] is the descriptor's number, which is
   what an edge's argv token carries: an inherited descriptor has no
   other way into OCaml, nor an open one's number out of it. *)
external fd_of_int : int -> Unix.file_descr = "%identity"
external int_of_fd : Unix.file_descr -> int = "%identity"

let edge_token dir fd seg =
  Printf.sprintf "%s=%d%s"
    (match dir with `In -> "in" | `Out -> "out")
    (int_of_fd fd)
    (match seg with Some path -> ":" ^ path | None -> "")

(* [s] split at its first [c], if it has one. *)
let cut c s =
  match String.index_opt s c with
  | None -> (s, None)
  | Some i -> (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

(* An edge from its token's value, [FD] or [FD:PATH]: the in-edge is the
   segment's side B, the out-edge its side A. *)
let edge_link ~side v =
  let fd, seg = cut ':' v in
  Link.of_fd ~side (fd_of_int (int_of_string fd)) seg

(* argv after the marker, [KEY=VALUE] tokens: [shm=PATH], the segment
   of the shm transport, whose doorbell is stdin (none: sock), and on
   two or more PEs the ring edges [in=...] and [out=...].  Then one
   loop over either [Link.t] case: a blocking receive from the
   coordinator, and each task's result sent back to it.  The
   coordinator takes an unpinned result as the PE's request for more,
   so the PE asks for nothing else. *)
let serve argv =
  let opts =
    List.map
      (fun tok ->
        match cut '=' tok with
        | (("shm" | "in" | "out") as key), Some v -> (key, v)
        | _ -> failwith ("dist worker: unknown argv after the marker: " ^ tok))
      (List.tl (List.tl (Array.to_list argv)))
  in
  let conn = Link.of_fd ~side:`B Unix.stdin (List.assoc_opt "shm" opts) in
  let ring =
    match (List.assoc_opt "in" opts, List.assoc_opt "out" opts) with
    | Some i, Some o -> Some (edge_link ~side:`B i, edge_link ~side:`A o)
    | None, None -> None
    | _ -> failwith "dist worker: one ring edge without the other"
  in
  let hello = Message.recv_hello conn in
  let s = start_session hello conn ring in
  Message.send_to_coordinator conn Message.Ready;
  let running = ref true in
  while !running do
    match Message.recv_to_worker conn with
    | Schedule { task_id; round; payload } ->
        run_task s ~coord:conn ~task_id ~round payload
    | Harvest -> Message.send_to_coordinator conn (Stats (stats_of_session s))
    | Shutdown -> running := false
  done

(* ---------------- entry points ---------------- *)

let main argv =
  match serve argv with
  | () -> exit 0
  | exception End_of_file ->
      (* coordinator vanished without Shutdown *)
      exit 1
  | exception e ->
      prerr_endline ("dist worker: " ^ Printexc.to_string e);
      exit 2

let maybe_run argv = if is_worker_invocation argv then main argv
