(** Coordinator of the distributed executor: spawns one worker process
    per PE, connects each over the selected transport, and drives one
    round of tasks through a star around itself.

    The transport (the paper's PVM-on-sockets vs PVM-on-shared-memory
    comparison) changes only how bytes move; placement is the same
    star over both, and it is {!Repro_mp.Star}'s, the one the simulated
    masterWorker skeleton runs.  Each PE is primed with {!prefetch}
    tasks; after that each unpinned result is also the PE's request
    for more, answered with its next [Schedule] or with nothing once
    the round has no task left (paper Sec. III-B).  So an unpinned
    task costs two messages, [Schedule] and [Result], and is on the one
    PE the coordinator sent it to.

    A pinned round (APSP) places task [i] on PE [i mod procs], and a
    pinned result asks for nothing.  The rows a running task relays
    travel PE to PE around a ring, Eden's ring skeleton: on two or more
    PEs, edge [i] runs from PE [i] to PE [(i + 1) mod procs] over the
    farm's transport, and the coordinator wires the ring at spawn and
    then carries none of it.  So apsp's pivot rows are pipelined with
    no barrier per pivot and no middle hop.  A PE sends on its
    out-edge in increasing row number, sends its own row [k] only after
    receiving every row before [k], and never forwards a row back to
    the row's origin, so no cycle of blocked senders can form on the
    ring, even when an edge buffers less than one row (see
    {!Message}).

    The coordinator sends to a PE only to prime it or to answer its
    result, and a PE reads everything the coordinator sends it before
    its next result.  So neither transport needs to drain results
    while a send blocks, as long as the tasks queued for one PE at
    once (at most {!prefetch}, or its share of a pinned round) fit in
    its ring (256 KiB) or socket buffer.

    {!Repro_mp.Star} also keeps the round's exactly-once ledger: a
    result for the wrong round, a task its PE does not hold, or a task
    already returned is a hard failure, not a silent overwrite. *)

module Star = Repro_mp.Star

type transport = Sock | Shm

let transport_name = function Sock -> "socketpair" | Shm -> "shm"

type link = { pe : int; pid : int; conn : Link.t }

exception Pe_died of { pe : int; status : Unix.process_status }

(* PE [pe]'s link closed after its [Ready] (a receive's [End_of_file],
   a send's [Dead_peer]): raised inside a run, and turned into
   {!Pe_died} by {!with_links} once every PE is reaped. *)
exception Link_closed of int

let send_to l msg =
  try Message.send_to_worker l.conn msg
  with Wire.Dead_peer _ -> raise (Link_closed l.pe)

(* The interface documents these. *)
type sched_span = {
  sp_task_id : int;
  sp_pe : int;
  sp_bytes : int;
  send_start_ns : int;
  send_done_ns : int;
}

(* What a round counts, and the coordinator's spans when it is traced,
   newest first. *)
type counts = {
  mutable schedules : int;
  mutable fishes : int;
  mutable no_works : int;
  mutable scheds : sched_span list;
}

type pe_report = {
  rep_pe : int;
  rep_pid : int;
  stats : Message.worker_stats;
  co : Wire.counters;
}

type outcome = {
  result : int;
  procs : int;
  rounds : int;
  tasks : int;
  schedules : int;
  fishes : int;
  no_works : int;
  reports : pe_report array;
  sched_spans : sched_span list;
  coord_pack_ns : int;
  coord_unpack_ns : int;
  work_ns : int;
  spawn_ns : int;
  merged_metrics : Repro_metrics.Metrics.snapshot;
}

(* The traced run on named Chrome tracks: PE [p] on track [p], the
   coordinator on track [procs].  Each PE recorded its own slices: per
   task, a [task] slice, as a pool task is, so [Repro_exec.Profile]
   reads both backends, with [unpack] and [pack] slices around it and
   a [wait] slice inside it for each blocking ring receive.  The
   coordinator adds its [schedule] sends as slices on its track, and
   a [wire] slice on the PE's track that bridges the send-done
   timestamp to the start of the PE's [unpack], which names the task —
   sound because every process reads the same CLOCK_MONOTONIC (see
   {!Clock}).  Timestamps are rebased to the earliest span. *)
let spans (o : outcome) : Repro_trace.Chrome.span list =
  let acc = ref [] in
  let push tid name cat t0 t1 bytes =
    if t1 >= t0 then
      acc :=
        {
          Repro_trace.Chrome.tid;
          name;
          cat;
          ts_ns = t0;
          dur_ns = Some (t1 - t0);
          args = [ ("bytes", Repro_util.Json_out.Int bytes) ];
        }
        :: !acc
  in
  let send_done = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace send_done s.sp_task_id (s.send_done_ns, s.sp_bytes);
      push o.procs "schedule" "sched" s.send_start_ns s.send_done_ns s.sp_bytes)
    o.sched_spans;
  Array.iter
    (fun r ->
      List.iter
        (fun (s : Repro_trace.Chrome.span) ->
          (match (s.name, s.args) with
          | "unpack", [ ("task", Repro_util.Json_out.Int id) ] -> (
              match Hashtbl.find_opt send_done id with
              | Some (sd, bytes) -> push s.tid "wire" "net" sd s.ts_ns bytes
              | None -> ())
          | _ -> ());
          acc := s :: !acc)
        r.stats.Message.spans)
    o.reports;
  let t0 = List.fold_left (fun m (s : Repro_trace.Chrome.span) -> min m s.ts_ns) max_int !acc in
  List.rev_map (fun (s : Repro_trace.Chrome.span) -> { s with ts_ns = s.ts_ns - t0 }) !acc

let trace (o : outcome) =
  Repro_trace.Chrome.document
    ~tracks:
      ((o.procs, "coordinator")
      :: List.init o.procs (fun pe -> (pe, Printf.sprintf "PE %d" pe)))
    (spans o)

(* How many tasks each PE holds at most in an unpinned round. *)
let prefetch = 2

(* ---------------- spawning ---------------- *)

(* Spawn one PE with [tokens] after the marker.  [passed] are the PE's
   ring edge ends, created close-on-exec: the flag is cleared on them
   only for this [create_process], and they are closed here on every
   path, so no other PE inherits them and the coordinator keeps none. *)
let spawn_process ~tokens ~passed =
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close passed)
    (fun () ->
      let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        (* Later children must not inherit this link, or a dead worker's
           EOF would never reach us. *)
        Unix.set_close_on_exec parent_fd;
        let argv = Array.append (Worker.default_argv ()) (Array.of_list tokens) in
        List.iter Unix.clear_close_on_exec passed;
        Unix.create_process argv.(0) argv child_fd Unix.stdout Unix.stderr
      with
      | pid ->
          Unix.close child_fd;
          (parent_fd, pid)
      | exception e ->
          (* a failed exec must not leak the pair *)
          Unix.close child_fd;
          Unix.close parent_fd;
          raise e)

(* Kill and reap every PE, returning each one's status ([None] if it
   could not be reaped).  A PE that died first stays a zombie until
   this reap, so its pid is not reused before the SIGKILL lands, and
   its status is the one it died with. *)
let kill_all links =
  Array.map
    (fun l ->
      (try Unix.kill l.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try Link.close l.conn with Unix.Unix_error _ -> ());
      let rec reap () =
        match Unix.waitpid [] l.pid with
        | _, status -> Some status
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
        | exception Unix.Unix_error _ -> None
      in
      reap ())
    links

(* Edge [i] of the PEs' ring, from PE [i] to PE [(i + 1) mod procs]: a
   socketpair, and over shm also the segment whose doorbell it is.
   PE [i] writes through [src], PE [i + 1] reads through [dst]. *)
type edge = { src : Unix.file_descr; dst : Unix.file_descr; seg : string option }

(* Spawn [hello.procs] PEs over [transport], send each its Hello, then
   wait for every PE's [Ready].  A PE sends it once its session has
   started, so on both transports [Farm.run]'s [spawn_ns] includes PE
   start-up, and a PE that cannot serve fails here.  Over shm each PE's
   link to the coordinator is a segment whose path travels in argv, the
   socketpair becoming its doorbell.  On two or more PEs the ring's
   edges are made first and each PE is handed its two ends.  Whichever
   way this ends, the PEs spawned so far are killed and reaped on
   failure, the edge ends no PE took are closed, and every segment is
   unlinked: every PE has mapped its segments before its [Ready]. *)
let start_pes ~transport ~(hello : Message.hello) =
  let procs = hello.procs in
  let spawned = ref [] and held = ref [] and segs = ref [] in
  let segment () =
    match transport with
    | Sock -> None
    | Shm ->
        let path = Shm_ring.create_segment () in
        segs := path :: !segs;
        Some path
  in
  let release () =
    List.iter Unix.close !held;
    List.iter Shm_ring.unlink_segment !segs
  in
  let edge () =
    let src, dst = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    held := src :: dst :: !held;
    { src; dst; seg = segment () }
  in
  let spawn edges pe =
    let own = segment () in
    let ring =
      if procs < 2 then []
      else
        let inn = edges.((pe + procs - 1) mod procs) and out = edges.(pe) in
        [ (Worker.edge_token `In inn.dst inn.seg, inn.dst);
          (Worker.edge_token `Out out.src out.seg, out.src) ]
    in
    let passed = List.map snd ring in
    held := List.filter (fun fd -> not (List.mem fd passed)) !held;
    let tokens = Option.to_list (Option.map (( ^ ) "shm=") own) @ List.map fst ring in
    let fd, pid = spawn_process ~tokens ~passed in
    { pe; pid; conn = Link.of_fd ~side:`A fd own }
  in
  let await_ready l =
    match Message.recv_to_coordinator l.conn with
    | Message.Ready -> ()
    | exception End_of_file ->
        failwith (Printf.sprintf "dist: PE %d exited before Ready" l.pe)
    | _ -> failwith (Printf.sprintf "dist: PE %d spoke before Ready" l.pe)
  in
  match
    let edges = if procs < 2 then [||] else Array.init procs (fun _ -> edge ()) in
    for pe = 0 to procs - 1 do
      let l = spawn edges pe in
      spawned := l :: !spawned;
      Message.send_hello l.conn { hello with Message.pe }
    done;
    let links = Array.of_list (List.rev !spawned) in
    Array.iter await_ready links;
    links
  with
  | links ->
      release ();
      links
  | exception e ->
      ignore (kill_all (Array.of_list !spawned));
      release ();
      raise e

(* ---------------- the round ---------------- *)

(* The ledger's typed errors as this module's failures. *)
let ledger_failure ~pe (e : Star.error) =
  failwith
    (match e with
    | Wrong_round { round; expected } ->
        Printf.sprintf "dist: PE %d returned a round-%d result in round %d" pe
          round expected
    | Unknown_task t -> Printf.sprintf "dist: PE %d returned unknown task %d" pe t
    | Duplicate t -> Printf.sprintf "dist: duplicate result for task %d (PE %d)" t pe)

(* Drive [payloads] (pre-marshalled tasks) to completion, returning
   the result payloads in task order; {!Repro_mp.Star} numbers the
   tasks from 0 and places them. *)
let exec_round ~(counts : counts) ~trace ~(links : link array) ~pinned
    (payloads : string array) : Message.payload array =
  let n = Array.length payloads in
  let results : Message.payload option array = Array.make n None in
  let send_task ({ worker; task; payload } : string Star.placement) =
    let l = links.(worker) in
    let t0 = Clock.now_ns () in
    send_to l (Schedule { task_id = task; round = 0; payload });
    if trace then
      counts.scheds <-
        {
          sp_task_id = task;
          sp_pe = l.pe;
          sp_bytes = String.length payload;
          send_start_ns = t0;
          send_done_ns = Clock.now_ns ();
        }
        :: counts.scheds;
    counts.schedules <- counts.schedules + 1
  in
  let star, placed =
    Star.start ~workers:(Array.length links) ~prefetch ~round:0 ~pinned
      (Array.to_list payloads)
  in
  let star = ref star in
  List.iter send_task placed;
  let handle_message (l : link) =
    match Message.recv_to_coordinator l.conn with
    | exception End_of_file -> raise (Link_closed l.pe)
    | Result { task_id; round; payload } -> (
        match Star.result !star ~worker:l.pe ~round ~task:task_id [] with
        | Error e -> ledger_failure ~pe:l.pe e
        | Ok (s, placed) ->
            star := s;
            results.(task_id) <- Some payload;
            (* an unpinned result is also the PE's request for more *)
            if not pinned then begin
              counts.fishes <- counts.fishes + 1;
              if placed = [] then counts.no_works <- counts.no_works + 1
            end;
            List.iter send_task placed)
    | Ready -> failwith "dist: stray Ready after start-up"
    | Stats _ -> failwith "dist: unsolicited Stats before Harvest"
  in
  let conns = Array.map (fun l -> l.conn) links in
  (* Drain whatever is ready on any link, without blocking: each pass
     takes one message from every ready link, until a pass finds none. *)
  let rec pump () =
    if not (Star.finished !star) then
      match Link.ready conns with
      | [] -> ()
      | ready ->
          List.iter
            (fun i -> if not (Star.finished !star) then handle_message links.(i))
            ready;
          pump ()
  in
  while not (Star.finished !star) do
    pump ();
    if not (Star.finished !star) then Link.wait_any conns
  done;
  Array.map Option.get results

(* ---------------- teardown ---------------- *)

let harvest (links : link array) : pe_report array =
  Array.map
    (fun l ->
      send_to l Message.Harvest;
      let stats =
        match Message.recv_to_coordinator l.conn with
        | exception End_of_file -> raise (Link_closed l.pe)
        | Ready -> failwith "dist: stray Ready at harvest"
        | Result _ -> failwith "dist: result arrived after the round"
        | Stats s -> s
      in
      (* a copy taken as [stats] arrive: the live counters would go on
         to count the Shutdown sent after the report *)
      let co = Link.counters l.conn in
      let co = { co with msgs_sent = co.msgs_sent } in
      { rep_pe = l.pe; rep_pid = l.pid; stats; co })
    links

let shutdown (links : link array) =
  Array.iter (fun l -> Message.send_to_worker l.conn Message.Shutdown) links;
  Array.iter
    (fun l ->
      Link.close l.conn;
      match Unix.waitpid [] l.pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED c ->
          failwith (Printf.sprintf "dist: PE %d exited with code %d" l.pe c)
      | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
          failwith (Printf.sprintf "dist: PE %d killed by signal %d" l.pe s))
    links

(* ---------------- typed entry points ---------------- *)

let with_links ?(transport = Sock) ~procs ~mode ~trace f =
  let t0 = Clock.now_ns () in
  let hello = { Message.pe = 0; procs; mode; trace } in
  let links = start_pes ~transport ~hello in
  let spawn_ns = Clock.now_ns () - t0 in
  match f links with
  | v -> (v, links, spawn_ns)
  | exception Link_closed pe -> (
      match (kill_all links).(pe) with
      | Some status -> raise (Pe_died { pe; status })
      | None -> failwith (Printf.sprintf "dist: PE %d died and could not be reaped" pe))
  | exception e ->
      ignore (kill_all links);
      raise e

let run ?transport ?(trace = false) ~procs ~size (module W : Workload.S) :
    outcome =
  if procs < 1 then invalid_arg "Farm.run: procs must be >= 1";
  let counts =
    { schedules = 0; fishes = 0; no_works = 0; scheds = [] }
  in
  let coord_pack_ns = ref 0 and coord_unpack_ns = ref 0 in
  let mode = Message.Workload { name = W.name; size } in
  let decode_result : Message.payload -> W.result = function
    | Message.Bytes_p s -> (Marshal.from_string s 0 : W.result)
    | Message.Floats_p f -> (
        match W.result_blob with
        | Some (_, dec) -> dec f
        | None -> failwith "dist: float blob for a workload without a codec")
  in
  let (result, tasks, work_ns, reports), links, spawn_ns =
    with_links ?transport ~procs ~mode ~trace (fun links ->
        let t0 = Clock.now_ns () in
        let st, tasks, pinned = W.start ~size ~procs in
        let tp0 = Clock.now_ns () in
        let payloads =
          Array.map (fun t -> Marshal.to_string (t : W.task) []) tasks
        in
        coord_pack_ns := Clock.now_ns () - tp0;
        let raw = exec_round ~counts ~trace ~links ~pinned payloads in
        let tu0 = Clock.now_ns () in
        let results = Array.map decode_result raw in
        coord_unpack_ns := Clock.now_ns () - tu0;
        let result = W.finish st results in
        let work_ns = Clock.now_ns () - t0 in
        let reports = harvest links in
        (result, Array.length tasks, work_ns, reports))
  in
  shutdown links;
  let merged_metrics =
    let module M = Repro_metrics.Metrics in
    Array.fold_left
      (fun acc r ->
        M.merge acc
          (M.relabel ("pe", string_of_int r.rep_pe) r.stats.Message.metrics))
      (M.relabel ("pe", "coord") (M.snapshot ()))
      reports
  in
  {
    result;
    procs;
    rounds = 1;
    tasks;
    schedules = counts.schedules;
    fishes = counts.fishes;
    no_works = counts.no_works;
    reports;
    sched_spans = counts.scheds;
    coord_pack_ns = !coord_pack_ns;
    coord_unpack_ns = !coord_unpack_ns;
    work_ns;
    spawn_ns;
    merged_metrics;
  }

(* A PE's own counters as one named per-worker row. *)
let stats_row (s : Message.worker_stats) =
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("tasks", s.tasks_executed);
      ("msgs_sent", s.msgs_sent);
      ("msgs_recv", s.msgs_recv);
      ("bytes_sent", s.bytes_sent);
      ("bytes_recv", s.bytes_recv);
      ("packets_sent", s.packets_sent);
      ("packets_recv", s.packets_recv);
      ("payload_bytes_sent", s.payload_bytes_sent);
      ("payload_bytes_recv", s.payload_bytes_recv);
      ("zero_copy_bytes_sent", s.zero_copy_bytes_sent);
      ("zero_copy_bytes_recv", s.zero_copy_bytes_recv);
      ("pack_ns", s.pack_ns);
      ("unpack_ns", s.unpack_ns);
      ("exec_ns", s.exec_ns);
      ("gc_minor_collections", s.gc_minor_collections);
      ("gc_major_collections", s.gc_major_collections);
    ]
  @ [
      ("gc_minor_words", s.gc_minor_words);
      ("gc_promoted_words", s.gc_promoted_words);
    ]

let sample ~transport ~procs ~size (module W : Workload.S) :
    Repro_metrics.Measure.sample =
  let o = run ~transport ~procs ~size (module W) in
  let rows = Array.map (fun r -> stats_row r.stats) o.reports in
  (* the named fields, summed over every PE's row *)
  let total keys =
    Array.fold_left
      (fun acc row ->
        List.fold_left (fun acc k -> acc +. List.assoc k row) acc keys)
      0. rows
  in
  let both k = total [ k ^ "_sent"; k ^ "_recv" ] in
  let outcome k v = (k, float_of_int v) in
  {
    workload = W.name;
    backend = Processes;
    transport = Some (transport_name transport);
    size;
    workers = procs;
    ns = o.work_ns;
    spawn_ns = o.spawn_ns;
    result = o.result;
    gc =
      {
        minor_collections = int_of_float (total [ "gc_minor_collections" ]);
        major_collections = int_of_float (total [ "gc_major_collections" ]);
        minor_words = total [ "gc_minor_words" ];
        promoted_words = total [ "gc_promoted_words" ];
      };
    counts =
      [
        outcome "rounds" o.rounds;
        outcome "tasks" o.tasks;
        outcome "schedules" o.schedules;
        outcome "fishes" o.fishes;
        outcome "no_works" o.no_works;
        ("msgs", both "msgs");
        ("bytes", both "bytes");
        ("packets", both "packets");
        ("payload_bytes", both "payload_bytes");
        ("zero_copy_bytes", both "zero_copy_bytes");
        ("pack_ns", total [ "pack_ns" ]);
        ("unpack_ns", total [ "unpack_ns" ]);
      ];
    per_worker = rows;
  }

let farm ?transport ~procs (fs : (unit -> 'a) list) : 'a list =
  if procs < 1 then invalid_arg "Farm.farm: procs must be >= 1";
  let counts =
    { schedules = 0; fishes = 0; no_works = 0; scheds = [] }
  in
  (* The closure is marshalled with [Marshal.Closures]; that works
     because every PE runs the very same binary (same code-fragment
     digests).  Its captured environment travels by copy — the
     process-boundary analogue of Eden's whole-normal-form rule. *)
  let payloads =
    Array.of_list
      (List.map
         (fun f ->
           let g () = Marshal.to_string (f ()) [] in
           Marshal.to_string g [ Marshal.Closures ])
         fs)
  in
  let raw, links, _spawn_ns =
    with_links ?transport ~procs ~mode:Message.Closures ~trace:false
      (fun links ->
        exec_round ~counts ~trace:false ~links ~pinned:false payloads)
  in
  shutdown links;
  Array.to_list
    (Array.map
       (function
         | Message.Bytes_p s -> (Marshal.from_string s 0 : 'a)
         | Message.Floats_p _ -> failwith "dist: float blob in closure mode")
       raw)
