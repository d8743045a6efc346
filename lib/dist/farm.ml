(** Coordinator of the distributed executor: spawns one worker process
    per PE, connects each over the selected transport, and drives
    barrier rounds of tasks with GUM-style demand scheduling.

    The transport (the paper's PVM-on-sockets vs PVM-on-shared-memory
    comparison) changes only how bytes move; placement is the same
    star over both.  Each PE is primed with {!prefetch} tasks,
    round-robin (Eden's master-worker prefetch); afterwards work moves
    on demand — a PE sends [Fish] to the coordinator after each
    unpinned result and is answered with a [Schedule] or [No_work]
    (paper Sec. III-B).  So every unpinned task is on the one PE the
    coordinator sent it to, and [link.outstanding] counts them.

    Pinned rounds (APSP) bypass demand scheduling: task [i] always goes
    to PE [i mod procs], because the PE holds the matching resident
    state, and its PE sends no [Fish] after it.

    The coordinator sends to a PE only to prime it or to answer its
    [Fish], and the PE reads those tasks before it sends another
    result.  So neither transport needs to drain results while a send
    blocks, as long as the tasks queued for one PE at once (at most
    {!prefetch} + 1, or its share of a pinned round) fit in its ring
    (256 KiB) or socket buffer.

    The coordinator keeps an exactly-once ledger per round: a result
    for an unknown task, the wrong round, or an already-filled slot is
    a hard failure, not a silent overwrite. *)

type transport = Sock | Shm

let transport_name = function Sock -> "socketpair" | Shm -> "shm"

type link = {
  pe : int;
  pid : int;
  conn : Link.t;
  mutable outstanding : int;  (** scheduled but not yet returned *)
}

type counts = {
  mutable rounds : int;
  mutable tasks : int;
  mutable schedules : int;
  mutable fishes : int;
  mutable no_works : int;
}

(** Coordinator-side timing of one [Schedule] send; with the worker's
    receive timestamp (same monotonic timebase) this bounds the wire
    span. *)
type sched_span = {
  sp_task_id : int;
  sp_pe : int;
  sp_round : int;
  sp_bytes : int;  (** marshalled task payload size *)
  send_start_ns : int;
  send_done_ns : int;
}

type pe_report = {
  rep_pe : int;
  rep_pid : int;
  stats : Message.worker_stats;  (** the PE's own view *)
  co : Wire.counters;  (** the coordinator's view of the same link *)
}

type outcome = {
  result : int;
  procs : int;
  rounds : int;
  tasks : int;
  schedules : int;
  fishes : int;  (** [Fish] messages the coordinator received *)
  no_works : int;
  reports : pe_report array;
  sched_spans : sched_span list;  (** newest first; [] unless traced *)
  coord_pack_ns : int;  (** task payload marshalling on the coordinator *)
  coord_unpack_ns : int;  (** result payload unmarshalling *)
  work_ns : int;  (** first dispatch to final [step]; excludes spawn *)
  spawn_ns : int;  (** process creation and PE start-up, up to every [Ready] *)
  merged_metrics : Repro_metrics.Metrics.snapshot;
      (** every PE's piggybacked registry snapshot (relabeled [pe=N])
          merged into the coordinator's own (relabeled [pe=coord]) —
          the farm-wide view *)
}

(* The traced run on named Chrome tracks: PE [p] on track [p], the
   coordinator on track [procs].  Each executed task is a [task] slice,
   as a pool task is, so [Repro_exec.Profile] reads both backends, with
   [unpack] and [pack] slices around it; the coordinator's [schedule]
   sends are slices on its track, and a [wire] slice on the PE's track
   bridges the send-done timestamp to the PE's receive-done one — sound
   because every process reads the same CLOCK_MONOTONIC (see {!Clock}).
   Timestamps are rebased to the earliest span. *)
let spans (o : outcome) : Repro_trace.Chrome.span list =
  let acc = ref [] in
  let push ?(bytes = 0) tid name cat t0 t1 =
    if t1 >= t0 then
      acc :=
        {
          Repro_trace.Chrome.tid;
          name;
          cat;
          ts_ns = t0;
          dur_ns = Some (t1 - t0);
          args = (if bytes > 0 then [ ("bytes", Repro_util.Json_out.Int bytes) ] else []);
        }
        :: !acc
  in
  let send_done = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace send_done s.sp_task_id (s.send_done_ns, s.sp_bytes);
      push ~bytes:s.sp_bytes o.procs "schedule" "sched" s.send_start_ns
        s.send_done_ns)
    o.sched_spans;
  Array.iter
    (fun r ->
      List.iter
        (fun (t : Message.task_span) ->
          (match Hashtbl.find_opt send_done t.span_task_id with
          | Some (sd, bytes) -> push ~bytes r.rep_pe "wire" "net" sd t.recv_done_ns
          | None -> ());
          push r.rep_pe "unpack" "pack" t.recv_done_ns t.exec_start_ns;
          push r.rep_pe "task" "exec" t.exec_start_ns t.exec_end_ns;
          push r.rep_pe "pack" "pack" t.exec_end_ns
            (t.exec_end_ns + t.span_pack_ns))
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

(* How many tasks each PE is primed with before demand scheduling
   takes over. *)
let prefetch = 2

(* ---------------- spawning ---------------- *)

let spawn_process ~extra_tokens =
  let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    (* Later children must not inherit this link, or a dead worker's
       EOF would never reach us. *)
    Unix.set_close_on_exec parent_fd;
    let argv =
      Array.append (Worker.default_argv ()) (Array.of_list extra_tokens)
    in
    Unix.create_process argv.(0) argv child_fd Unix.stdout Unix.stderr
  with
  | pid ->
      Unix.close child_fd;
      (parent_fd, pid)
  | exception e ->
      (* a failed exec must not leak the pair *)
      Unix.close child_fd;
      Unix.close parent_fd;
      raise e

let kill_all links =
  Array.iter
    (fun l ->
      (try Unix.kill l.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try Link.close l.conn with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] l.pid) with Unix.Unix_error _ -> ())
    links

(* Spawn [hello.procs] PEs with [spawn pe], send each its Hello, then wait
   for every PE's [Ready].  A PE sends it once its session has started,
   so on both transports [Farm.run]'s [spawn_ns] includes PE start-up,
   and a PE that cannot serve fails here.  If anything fails, the PEs
   spawned so far are killed and reaped.  [release] runs on both paths,
   once no PE can still need it (shm: unlink the segments, which every
   PE has mapped before its [Ready]). *)
let start_pes ~(hello : Message.hello) ~release spawn =
  let spawned = ref [] in
  let await_ready l =
    match Message.recv_to_coordinator l.conn with
    | Message.Ready -> ()
    | exception End_of_file ->
        failwith (Printf.sprintf "dist: PE %d exited before Ready" l.pe)
    | _ -> failwith (Printf.sprintf "dist: PE %d spoke before Ready" l.pe)
  in
  match
    for pe = 0 to hello.procs - 1 do
      let pid, conn = spawn pe in
      spawned := { pe; pid; conn; outstanding = 0 } :: !spawned;
      Message.send_hello conn { hello with Message.pe }
    done;
    let links = Array.of_list (List.rev !spawned) in
    Array.iter await_ready links;
    links
  with
  | links ->
      release ();
      links
  | exception e ->
      kill_all (Array.of_list !spawned);
      release ();
      raise e

let spawn_sock ~hello =
  start_pes ~hello ~release:ignore (fun _pe ->
      let fd, pid = spawn_process ~extra_tokens:[] in
      (pid, Link.Sock (Wire.create ~read_fd:fd ~write_fd:fd ())))

(* One segment per PE.  Its path travels in argv; the socketpair
   becomes the doorbell. *)
let spawn_shm ~hello =
  let paths = Array.init hello.Message.procs (fun _ -> Shm_ring.create_segment ()) in
  let release () = Array.iter Shm_ring.unlink_segment paths in
  start_pes ~hello ~release (fun pe ->
      let fd, pid = spawn_process ~extra_tokens:[ "shm=" ^ paths.(pe) ] in
      (pid, Link.Shm (Shm_ring.attach ~path:paths.(pe) ~side:`A ~doorbell:fd)))

(* ---------------- one barrier round ---------------- *)

(* Drive [payloads] (pre-marshalled tasks) to completion, returning
   the result payloads in task order.  [id0] makes task ids globally
   unique across rounds. *)
let exec_round ~(counts : counts) ~trace ~sched_spans ~(links : link array)
    ~round ~id0 ~pinned (payloads : string array) : Message.payload array =
  let n = Array.length payloads in
  let results : Message.payload option array = Array.make n None in
  let got = ref 0 in
  let next = ref 0 in
  let send_task (l : link) idx =
    let task_id = id0 + idx in
    let t0 = Clock.now_ns () in
    Message.send_to_worker l.conn
      (Schedule
         { task_id; round; stealable = not pinned; payload = payloads.(idx) });
    if trace then
      sched_spans :=
        {
          sp_task_id = task_id;
          sp_pe = l.pe;
          sp_round = round;
          sp_bytes = String.length payloads.(idx);
          send_start_ns = t0;
          send_done_ns = Clock.now_ns ();
        }
        :: !sched_spans;
    l.outstanding <- l.outstanding + 1;
    counts.schedules <- counts.schedules + 1
  in
  let handle_message (l : link) =
    match Message.recv_to_coordinator l.conn with
    | Fish ->
        counts.fishes <- counts.fishes + 1;
        if (not pinned) && !next < n then begin
          send_task l !next;
          incr next
        end
        else begin
          Message.send_to_worker l.conn Message.No_work;
          counts.no_works <- counts.no_works + 1
        end
    | Result { task_id; round = r; payload; blob } ->
        (* the blob (if any) is queued right behind the control
           message on the same link: complete it before anything else *)
        let p = Message.recv_result_payload l.conn ~blob ~payload in
        if r <> round then
          failwith
            (Printf.sprintf "dist: PE %d returned a round-%d result in round %d"
               l.pe r round);
        let idx = task_id - id0 in
        if idx < 0 || idx >= n then
          failwith
            (Printf.sprintf "dist: PE %d returned unknown task %d" l.pe task_id);
        (match results.(idx) with
        | Some _ ->
            failwith
              (Printf.sprintf "dist: duplicate result for task %d (PE %d)"
                 task_id l.pe)
        | None -> results.(idx) <- Some p);
        incr got;
        l.outstanding <- l.outstanding - 1
    | Ready -> failwith "dist: stray Ready after start-up"
    | Stats _ -> failwith "dist: unsolicited Stats before Harvest"
  in
  let conns = Array.map (fun l -> l.conn) links in
  (* Drain whatever is ready on any link, without blocking: each pass
     takes one message from every ready link, until a pass finds none. *)
  let rec pump () =
    if !got < n then
      match Link.ready conns with
      | [] -> ()
      | ready ->
          List.iter (fun i -> if !got < n then handle_message links.(i)) ready;
          pump ()
  in
  (* Initial placement: pinned tasks to their owner; otherwise up to
     [prefetch] per PE, then on demand. *)
  if pinned then
    for idx = 0 to n - 1 do
      send_task links.(idx mod Array.length links) idx
    done
  else begin
    let continue = ref true in
    while !continue do
      continue := false;
      Array.iter
        (fun l ->
          if l.outstanding < prefetch && !next < n then begin
            send_task l !next;
            incr next;
            continue := true
          end)
        links
    done
  end;
  while !got < n do
    pump ();
    if !got < n then Link.wait_any conns
  done;
  counts.tasks <- counts.tasks + n;
  counts.rounds <- counts.rounds + 1;
  Array.map
    (function
      | Some s -> s
      | None -> failwith "dist: round ended with a missing result")
    results

(* ---------------- teardown ---------------- *)

let harvest ~(counts : counts) (links : link array) : pe_report array =
  Array.map
    (fun l ->
      Message.send_to_worker l.conn Message.Harvest;
      let rec await () =
        match Message.recv_to_coordinator l.conn with
        | Fish ->
            (* the fish after the last round's last unpinned result *)
            counts.fishes <- counts.fishes + 1;
            Message.send_to_worker l.conn Message.No_work;
            counts.no_works <- counts.no_works + 1;
            await ()
        | Ready -> failwith "dist: stray Ready at harvest"
        | Result _ -> failwith "dist: result arrived after the last round"
        | Stats s -> s
      in
      let stats = await () in
      { rep_pe = l.pe; rep_pid = l.pid; stats; co = Link.counters l.conn })
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
  let links =
    match transport with
    | Sock -> spawn_sock ~hello
    | Shm -> spawn_shm ~hello
  in
  let spawn_ns = Clock.now_ns () - t0 in
  match f links with
  | v -> (v, links, spawn_ns)
  | exception e ->
      kill_all links;
      raise e

let run ?transport ?(trace = false) ~procs ~size (module W : Workload.S) :
    outcome =
  if procs < 1 then invalid_arg "Farm.run: procs must be >= 1";
  let counts =
    { rounds = 0; tasks = 0; schedules = 0; fishes = 0; no_works = 0 }
  in
  let sched_spans = ref [] in
  let coord_pack_ns = ref 0 and coord_unpack_ns = ref 0 in
  let mode = Message.Workload { name = W.name; size } in
  let decode_result : Message.payload -> W.result = function
    | Message.Bytes_p s -> (Marshal.from_string s 0 : W.result)
    | Message.Floats_p f -> (
        match W.result_blob with
        | Some (_, dec) -> dec f
        | None -> failwith "dist: float blob for a workload without a codec")
  in
  let (result, work_ns, reports), links, spawn_ns =
    with_links ?transport ~procs ~mode ~trace (fun links ->
        let t0 = Clock.now_ns () in
        let rec rounds st tasks pinned =
          let tp0 = Clock.now_ns () in
          let payloads =
            Array.map (fun t -> Marshal.to_string (t : W.task) []) tasks
          in
          coord_pack_ns := !coord_pack_ns + (Clock.now_ns () - tp0);
          let raw =
            exec_round ~counts ~trace ~sched_spans ~links ~round:counts.rounds
              ~id0:counts.tasks ~pinned payloads
          in
          let tu0 = Clock.now_ns () in
          let results = Array.map decode_result raw in
          coord_unpack_ns := !coord_unpack_ns + (Clock.now_ns () - tu0);
          match W.step st results with
          | `Done v -> v
          | `Round (st, tasks, pinned) -> rounds st tasks pinned
        in
        let st, tasks, pinned = W.start ~size ~procs in
        let result = rounds st tasks pinned in
        let work_ns = Clock.now_ns () - t0 in
        let reports = harvest ~counts links in
        (result, work_ns, reports))
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
    rounds = counts.rounds;
    tasks = counts.tasks;
    schedules = counts.schedules;
    fishes = counts.fishes;
    no_works = counts.no_works;
    reports;
    sched_spans = !sched_spans;
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
      ("fishes", s.fishes_sent);
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
    { rounds = 0; tasks = 0; schedules = 0; fishes = 0; no_works = 0 }
  in
  let sched_spans = ref [] in
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
        let raw =
          exec_round ~counts ~trace:false ~sched_spans ~links ~round:0 ~id0:0
            ~pinned:false payloads
        in
        (* The Harvest/Stats exchange also synchronises teardown: a
           worker's trailing [Fish] could otherwise race our [close]
           and die on EPIPE. *)
        let (_ : pe_report array) = harvest ~counts links in
        raw)
  in
  shutdown links;
  Array.to_list
    (Array.map
       (function
         | Message.Bytes_p s -> (Marshal.from_string s 0 : 'a)
         | Message.Floats_p _ -> failwith "dist: float blob in closure mode")
       raw)
