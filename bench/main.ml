(** Benchmark harness: the measurements no other front end makes.

    - real execution on domains against the simulator's prediction;
    - Eden-style processes against GpH-style domains ([--eden-vs-gph];
      [--dist-transport sock|shm] picks the wire);
    - transport calibration ([--transport]);
    - metrics record overhead ([--metrics-overhead]);
    - the minor-heap sweep ([--minor-heap]).

    With no argument every section but the sweep runs; any other
    argument is a usage error.  The paper's figures come from
    [repro_cli all], the layer costs with bounds from perfbench.  Set
    [REPRO_BENCH_QUICK=1] to shrink the sizes. *)

module E = Repro_experiments
module Versions = Repro_core.Versions

let quick =
  match Sys.getenv_opt "REPRO_BENCH_QUICK" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* [--dist-transport sock|shm] selects the wire for the eden-vs-gph
   section (socketpair framing vs shared-memory rings). *)
let dist_transport =
  let rec find = function
    | "--dist-transport" :: v :: _ -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  match find (Array.to_list Sys.argv) with
  | None | Some "sock" -> Repro_dist.Farm.Sock
  | Some "shm" -> Repro_dist.Farm.Shm
  | Some other ->
      Printf.eprintf "bench: unknown --dist-transport %s (want sock|shm)\n"
        other;
      exit 2

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Real execution vs. simulation                                       *)
(* ------------------------------------------------------------------ *)

module Exec_workload = Repro_exec.Workload
module Measure = Repro_metrics.Measure
module Machine = Repro_machine.Machine

(* Simulator prediction for the same workload shape: the paper's best
   shared-heap configuration (work stealing + eager black-holing +
   spark threads) swept over the same core ladder on the AMD 16-core
   model.  Problem sizes are the paper's, not the real runs' — the
   comparison is of curve {e shapes} (where each workload saturates),
   not absolute times. *)
let sim_series name ladder =
  let version_at c =
    Versions.with_eager
      (Versions.gph_steal ~machine:(Machine.with_cores Machine.amd16 c) ~ncaps:c ())
  in
  let work ~ncaps:_ () =
    match name with
    | "sumeuler" ->
        ignore (Repro_workloads.Sumeuler.gph ~n:(if quick then 3000 else 15000) ())
    | "parfib" ->
        ignore
          (Repro_workloads.Parfib.gph
             ~n:(if quick then 24 else 30)
             ~threshold:(if quick then 14 else 20)
             ())
    | "matmul" ->
        ignore (Repro_workloads.Matmul.gph ~n:(if quick then 240 else 500) ())
    | "mandelbrot" ->
        let d = if quick then 120 else 300 in
        ignore (Repro_workloads.Mandelbrot.gph ~width:d ~height:d ())
    | "apsp" -> ignore (Repro_workloads.Apsp.gph ~n:(if quick then 100 else 200) ())
    | _ -> ()
  in
  E.Exp.series ~label:("sim " ^ name) ~core_counts:ladder ~version_at ~work

let sim_vs_real () =
  hr "Real execution (OCaml 5 domains, work-stealing executor) vs. simulation";
  let hw = Domain.recommended_domain_count () in
  let ladder = Measure.core_counts_up_to (min hw 16) in
  Printf.printf
    "%d hardware core(s); measuring each workload at %s domain(s)\n" hw
    (String.concat ", " (List.map string_of_int ladder));
  let repeats = if quick then 2 else 3 in
  let all_measurements =
    List.concat_map
      (fun (module W : Exec_workload.S) ->
        let size = if quick then W.quick_size else W.default_size in
        let ms =
          Measure.sweep ~repeats ~ladder (fun cores ->
              Exec_workload.sample (module W) ~size ~cores)
        in
        Printf.printf "\n-- %s, size %d (%s): measured wall clock --\n" W.name
          size W.size_doc;
        Repro_util.Tablefmt.print (Measure.to_table ms);
        let sim = sim_series W.name ladder in
        let t =
          Repro_util.Tablefmt.create
            ~aligns:(Repro_util.Tablefmt.Left :: List.map (fun _ -> Repro_util.Tablefmt.Right) ladder)
            ("speedup" :: List.map string_of_int ladder)
        in
        Repro_util.Tablefmt.add_row t
          ("real (measured)"
          :: List.map (fun (m : Measure.measurement) -> Printf.sprintf "%.2f" m.speedup) ms);
        Repro_util.Tablefmt.add_row t
          ("sim (predicted)"
          :: List.map (fun s -> Printf.sprintf "%.2f" s) sim.E.Exp.speedups);
        Repro_util.Tablefmt.print t;
        ms)
      Exec_workload.all
  in
  Repro_util.Json_out.to_file "BENCH_exec.json"
    (Measure.json_document all_measurements);
  Printf.printf "\nwrote BENCH_exec.json (%d measurements)\n"
    (List.length all_measurements)

(* ------------------------------------------------------------------ *)
(* Transport calibration                                               *)
(* ------------------------------------------------------------------ *)

module Wire = Repro_dist.Wire
module Shm_ring = Repro_dist.Shm_ring

let now_ns () = Repro_dist.Clock.now_ns ()

let time_ns f =
  let t0 = now_ns () in
  f ();
  now_ns () - t0

(* Echo servers for the calibration: bounce every message back until
   the parent closes the link. *)
let transport_echo_child () =
  let conn = Wire.create ~read_fd:Unix.stdin ~write_fd:Unix.stdout () in
  (try
     while true do
       Wire.send conn (Wire.recv conn)
     done
   with End_of_file -> ());
  exit 0

(* The shm variant: the segment path arrives as the argument after the
   marker, stdin is the doorbell (exactly the dist-worker convention). *)
let shm_echo_child path =
  let conn = Shm_ring.attach ~path ~side:`B ~doorbell:Unix.stdin in
  (try
     while true do
       Shm_ring.send conn (Shm_ring.recv conn)
     done
   with End_of_file -> ());
  exit 0

let with_echo_child f =
  let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec parent_fd;
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--transport-echo" |]
      child_fd child_fd Unix.stderr
  in
  Unix.close child_fd;
  let conn = Wire.create ~read_fd:parent_fd ~write_fd:parent_fd () in
  let r = f conn in
  Wire.close conn;
  ignore (Unix.waitpid [] pid);
  r

let with_shm_echo_child f =
  let path = Shm_ring.create_segment () in
  let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec parent_fd;
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--transport-echo-shm"; path |]
      child_fd Unix.stdout Unix.stderr
  in
  Unix.close child_fd;
  let conn = Shm_ring.attach ~path ~side:`A ~doorbell:parent_fd in
  let r = f conn in
  Shm_ring.close conn;
  (* closing the doorbell is the child's EOF *)
  ignore (Unix.waitpid [] pid);
  Shm_ring.unlink_segment path;
  r

(* Round-trip measurements over either transport, from which the
   measured profile constants fall out. *)
type rtt = {
  small_rt_ns : int;
  big_rt_ns : int;
  per_message_ns : int;
  big_bytes : int;
}

let measure_rtt ~send ~recv =
  let round_trip payload n =
    let t0 = now_ns () in
    for _ = 1 to n do
      send payload;
      ignore (recv ())
    done;
    (now_ns () - t0) / n
  in
  (* warm-up: page in both processes' paths *)
  ignore (round_trip "x" 200);
  let small_rt_ns = round_trip "x" (if quick then 500 else 3000) in
  let big_bytes = 1 lsl 20 in
  let big_rt_ns =
    round_trip (String.make big_bytes 'y') (if quick then 10 else 50)
  in
  (* send-side fixed overhead: back-to-back sends.  The burst must
     stay well under the backpressure limit on both directions at
     once, since the echoes are only drained afterwards: under the
     socket buffer in kernel skb accounting terms (~1 KiB per tiny
     send) for the socketpair, under half the ring capacity for the
     shm rings — 100 is safely inside both. *)
  let burst = 100 in
  let t0 = now_ns () in
  for _ = 1 to burst do
    send "x"
  done;
  let per_message_ns = (now_ns () - t0) / burst in
  for _ = 1 to burst do
    ignore (recv ())
  done;
  { small_rt_ns; big_rt_ns; per_message_ns; big_bytes }

let profile_of_rtt ~name ~pack_ns_per_byte ~unpack_ns_per_byte ~packet_bytes
    (r : rtt) =
  let latency_ns = max 0 ((r.small_rt_ns / 2) - r.per_message_ns) in
  let wire_ns_per_byte =
    max 0.0
      (float_of_int (r.big_rt_ns - r.small_rt_ns)
      /. 2.0
      /. float_of_int r.big_bytes)
  in
  Repro_mp.Transport.measured ~name ~latency_ns
    ~per_message_ns:r.per_message_ns ~wire_ns_per_byte ~pack_ns_per_byte
    ~unpack_ns_per_byte ~packet_bytes ()

(* Marshal throughput on a representative flat payload — the pack and
   unpack costs of the socketpair control plane. *)
let marshal_costs () =
  let arr = Array.init (128 * 1024) float_of_int in
  let s = Marshal.to_string arr [] in
  let bytes = String.length s in
  let reps = if quick then 20 else 100 in
  let t0 = now_ns () in
  for _ = 1 to reps do
    ignore (Marshal.to_string arr [])
  done;
  let pack =
    float_of_int (now_ns () - t0) /. float_of_int reps /. float_of_int bytes
  in
  let t0 = now_ns () in
  for _ = 1 to reps do
    ignore (Marshal.from_string s 0 : float array)
  done;
  let unpack =
    float_of_int (now_ns () - t0) /. float_of_int reps /. float_of_int bytes
  in
  (pack, unpack)

type calibration = {
  cal_sock : Repro_mp.Transport.t;
  cal_shm : Repro_mp.Transport.t;
  sock_small_rt_ns : int;  (** cross-process ping-pong round trip *)
  shm_small_rt_ns : int;
  sock_small_one_way_ns : int;  (** one message across the transport *)
  shm_small_one_way_ns : int;
}

(* One-way small-message cost, both endpoints in this process so no
   scheduler is involved: what one message costs in software.  For the
   socketpair that is a write plus a read system call; for the ring it
   is a few cache-line transfers and no kernel at all — the hot-path
   difference the ping-pong numbers above bury in context-switch time
   on a loaded (or single-core) machine. *)
let small_one_way ~send ~recv =
  let n = if quick then 2_000 else 20_000 in
  for _ = 1 to 100 do
    send "x";
    ignore (recv ())
  done;
  let t0 = now_ns () in
  for _ = 1 to n do
    send "x";
    ignore (recv ())
  done;
  (now_ns () - t0) / n

let sock_one_way () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Wire.create ~read_fd:a ~write_fd:a ()
  and cb = Wire.create ~read_fd:b ~write_fd:b () in
  let r =
    small_one_way ~send:(Wire.send ca) ~recv:(fun () -> Wire.recv cb)
  in
  Unix.close a;
  Unix.close b;
  r

(* In-process shm costs: the one-way small-message figure plus a
   bulk-bandwidth figure (64 KiB messages, well inside the ring), from
   which the measured-shm profile constants come — the cross-process
   ping-pong would bake context-switch time into them.  The consumer
   never sleeps, so the doorbell pair never carries a byte. *)
let shm_inproc_costs () =
  let path = Shm_ring.create_segment () in
  let da, db = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let a = Shm_ring.attach ~path ~side:`A ~doorbell:da in
  let b = Shm_ring.attach ~path ~side:`B ~doorbell:db in
  let small =
    small_one_way ~send:(Shm_ring.send a) ~recv:(fun () -> Shm_ring.recv b)
  in
  (* bulk bandwidth on the float plane — the plane matmul blocks and
     mandelbrot rows actually ride — where frames are written into and
     read out of the mapping in place *)
  let elems = 8192 in
  let big_bytes = 8 * elems in
  let payload = Array.make elems 1.5 in
  let n = if quick then 200 else 2000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    Shm_ring.send_floats a payload;
    ignore (Shm_ring.recv_floats b ~len:elems)
  done;
  let big = (now_ns () - t0) / n in
  Shm_ring.close a;
  Shm_ring.close b;
  Shm_ring.unlink_segment path;
  (small, max 0.0 (float_of_int (big - small) /. float_of_int big_bytes))

(* Both measured profiles, computed once: socketpair + Marshal (the
   control plane) and shm rings, whose float plane needs no
   marshalling at all — frames are written into and read out of the
   mapping in place, so the measured pack/unpack costs are zero by
   construction. *)
let measured_calibration =
  lazy
    (let pack, unpack = marshal_costs () in
     let sock_rtt =
       with_echo_child (fun conn ->
           measure_rtt ~send:(Wire.send conn) ~recv:(fun () -> Wire.recv conn))
     in
     let shm_rtt =
       with_shm_echo_child (fun conn ->
           measure_rtt
             ~send:(Shm_ring.send conn)
             ~recv:(fun () -> Shm_ring.recv conn))
     in
     let shm_small_ns, shm_wire_ns_per_byte = shm_inproc_costs () in
     {
       cal_sock =
         profile_of_rtt ~name:"measured-sock" ~pack_ns_per_byte:pack
           ~unpack_ns_per_byte:unpack ~packet_bytes:Wire.default_packet_bytes
           sock_rtt;
       cal_shm =
         Repro_mp.Transport.measured ~name:"measured-shm" ~latency_ns:0
           ~per_message_ns:shm_small_ns
           ~wire_ns_per_byte:shm_wire_ns_per_byte ~pack_ns_per_byte:0.0
           ~unpack_ns_per_byte:0.0 ~packet_bytes:32768 ();
       sock_small_rt_ns = sock_rtt.small_rt_ns;
       shm_small_rt_ns = shm_rtt.small_rt_ns;
       sock_small_one_way_ns = sock_one_way ();
       shm_small_one_way_ns = shm_small_ns;
     })

let json_of_profile (p : Repro_mp.Transport.t) =
  Repro_util.Json_out.Obj
    [
      ("name", Repro_util.Json_out.Str p.name);
      ("latency_ns", Repro_util.Json_out.Int p.latency_ns);
      ("per_message_ns", Repro_util.Json_out.Int p.per_message_ns);
      ("wire_ns_per_byte", Repro_util.Json_out.Float p.wire_ns_per_byte);
      ("pack_ns_per_byte", Repro_util.Json_out.Float p.pack_ns_per_byte);
      ("unpack_ns_per_byte", Repro_util.Json_out.Float p.unpack_ns_per_byte);
      ("packet_bytes", Repro_util.Json_out.Int p.packet_bytes);
    ]

let calibration_json () =
  let c = Lazy.force measured_calibration in
  Repro_util.Json_out.Obj
    [
      ("profiles", Repro_util.Json_out.List
         [ json_of_profile c.cal_sock; json_of_profile c.cal_shm ]);
      ("sock_small_rt_ns", Repro_util.Json_out.Int c.sock_small_rt_ns);
      ("shm_small_rt_ns", Repro_util.Json_out.Int c.shm_small_rt_ns);
      ( "sock_small_one_way_ns",
        Repro_util.Json_out.Int c.sock_small_one_way_ns );
      ("shm_small_one_way_ns", Repro_util.Json_out.Int c.shm_small_one_way_ns);
    ]

(* ---------------- metrics record overhead ---------------- *)

(* Interleaved A/B: rounds alternate enabled/disabled on the very same
   instruments, so drift (thermal, GC phase, frequency scaling) lands
   on both arms equally and the difference isolates the record cost.
   Micro level: counter incr (per-domain shard, fetch_and_add) and
   histogram observe; macro level: a full instrumented pool workload
   with the default registry toggled. *)
let metrics_overhead () =
  hr "Metrics record overhead (interleaved A/B, enabled vs disabled)";
  let module M = Repro_metrics.Metrics in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let rounds = if quick then 5 else 9 in
  let reg = M.create () in
  let c = M.counter ~registry:reg ~labels:[ ("worker", "0") ] "bench_counter_total" in
  let h = M.histogram ~registry:reg "bench_hist_ns" in
  let ops = if quick then 200_000 else 1_000_000 in
  let run_ab name round =
    let ena = ref [] and dis = ref [] in
    for r = 1 to 2 * rounds do
      let on = r land 1 = 1 in
      M.set_enabled reg on;
      let per_op = float_of_int (time_ns round) /. float_of_int ops in
      let cell = if on then ena else dis in
      cell := per_op :: !cell
    done;
    M.set_enabled reg true;
    let e = median !ena and d = median !dis in
    Printf.printf "  %-32s enabled %6.2f ns/op   disabled %6.2f ns/op   delta %+.2f ns\n%!"
      name e d (e -. d);
    (name, e, d)
  in
  let micro =
    [
      run_ab "counter incr (sharded XADD)" (fun () ->
          for i = 1 to ops do
            ignore i;
            M.incr c
          done);
      (* mask the value so min/max stabilise after the first rounds:
         steady-state observe, not the pathological every-op-new-max
         case a monotone argument would produce *)
      run_ab "histogram observe" (fun () ->
          for i = 1 to ops do
            M.observe h (i land 0xffff)
          done);
    ]
  in
  (* macro: same pool, same workload, default registry toggled between
     repeats — the instrumented paths are run_task's busy-ns clocking
     and the harness duration histogram *)
  let module W = (val Option.get (Repro_exec.Workload.find "sumeuler")) in
  let cores = min 4 (Domain.recommended_domain_count ()) in
  let size = W.quick_size in
  let e_ns, d_ns =
    Repro_exec.Pool.with_pool ~cores (fun () ->
        ignore (W.run ~size ());
        let ena = ref [] and dis = ref [] in
        for r = 1 to 2 * rounds do
          let on = r land 1 = 1 in
          M.set_enabled M.default on;
          let dt = float_of_int (time_ns (fun () -> ignore (W.run ~size ()))) in
          let cell = if on then ena else dis in
          cell := dt :: !cell
        done;
        M.set_enabled M.default true;
        (median !ena, median !dis))
  in
  Printf.printf
    "  %-32s enabled %6.2f ms     disabled %6.2f ms     delta %+.1f%%\n%!"
    (Printf.sprintf "sumeuler size %d, %d cores" size cores)
    (e_ns /. 1e6) (d_ns /. 1e6)
    (100. *. (e_ns -. d_ns) /. d_ns);
  Repro_util.Json_out.to_file "BENCH_metrics.json"
    (Repro_util.Json_out.Obj
       (("schema", Repro_util.Json_out.Str "repro/bench-metrics/v1")
        :: Measure.env_header ()
       @ [
           ( "micro_ns_per_op",
             Repro_util.Json_out.List
               (List.map
                  (fun (name, e, d) ->
                    Repro_util.Json_out.Obj
                      [
                        ("name", Repro_util.Json_out.Str name);
                        ("enabled_ns", Repro_util.Json_out.Float e);
                        ("disabled_ns", Repro_util.Json_out.Float d);
                      ])
                  micro) );
           ( "workload_e2e",
             Repro_util.Json_out.Obj
               [
                 ("workload", Repro_util.Json_out.Str W.name);
                 ("cores", Repro_util.Json_out.Int cores);
                 ("size", Repro_util.Json_out.Int size);
                 ("enabled_ns", Repro_util.Json_out.Float e_ns);
                 ("disabled_ns", Repro_util.Json_out.Float d_ns);
               ] );
         ]));
  Printf.printf "\nwrote BENCH_metrics.json\n%!"

(* Calibrate [Transport.measured] profiles from this machine: round
   trips over a real socketpair and a real shm ring pair give latency
   / per-message / per-byte wire costs, a Marshal micro-benchmark
   gives the control plane's pack/unpack throughput.  These are the
   measured analogues of the modelled pvm/mpi/shm profiles. *)
let transport_calibration () =
  hr "Transport calibration: measured socketpair and shm rings, vs modelled \
      profiles";
  let c = Lazy.force measured_calibration in
  let t =
    Repro_util.Tablefmt.create
      ~aligns:
        Repro_util.Tablefmt.[ Left; Right; Right; Right; Right; Right; Right ]
      [
        "profile"; "latency ns"; "per-msg ns"; "wire ns/B"; "pack ns/B";
        "unpack ns/B"; "packet B";
      ]
  in
  List.iter
    (fun (p : Repro_mp.Transport.t) ->
      Repro_util.Tablefmt.add_row t
        [
          p.name;
          string_of_int p.latency_ns;
          string_of_int p.per_message_ns;
          Printf.sprintf "%.3f" p.wire_ns_per_byte;
          Printf.sprintf "%.3f" p.pack_ns_per_byte;
          Printf.sprintf "%.3f" p.unpack_ns_per_byte;
          string_of_int p.packet_bytes;
        ])
    (Repro_mp.Transport.all @ [ c.cal_sock; c.cal_shm ]);
  Repro_util.Tablefmt.print t;
  Printf.printf
    "small-packet cross-process ping-pong: socketpair %d ns vs shm ring %d \
     ns (%.1fx; scheduler-bound when PEs outnumber cores)\n"
    c.sock_small_rt_ns c.shm_small_rt_ns
    (float_of_int c.sock_small_rt_ns /. float_of_int (max 1 c.shm_small_rt_ns));
  Printf.printf
    "small-packet one-way software cost: socketpair %d ns (two syscalls) vs \
     shm ring %d ns (no kernel) — %.1fx\n"
    c.sock_small_one_way_ns c.shm_small_one_way_ns
    (float_of_int c.sock_small_one_way_ns
    /. float_of_int (max 1 c.shm_small_one_way_ns));
  Printf.printf
    "(measured = this machine; modelled rows are the paper-era middleware \
     profiles)\n"

module Dist_workload = Repro_dist.Workload

(* The paper's central comparison, measured rather than simulated: the
   same five kernels on the distributed-heap backend (one process per
   PE, private heaps and GCs, framed socketpair messages) and on the
   shared-heap backend (domains + work stealing).  Both run at the
   same sizes and the same PE ladder and both must reproduce the
   sequential checksum bit-for-bit. *)
let eden_vs_gph () =
  let transport_name = Repro_dist.Farm.transport_name dist_transport in
  hr
    (Printf.sprintf
       "Eden-style processes (%s transport) vs GpH-style domains (measured, \
        this machine)"
       transport_name);
  let hw = Domain.recommended_domain_count () in
  let ladder = Measure.core_counts_up_to (max 4 (min hw 8)) in
  if List.exists (fun c -> c > hw) ladder then
    Printf.printf
      "note: %d hardware core(s) — points beyond %d are oversubscribed\n" hw hw;
  let repeats = if quick then 2 else 3 in
  let ms =
    List.concat_map
      (fun (module D : Dist_workload.S) ->
        let (module W) = Option.get (Exec_workload.find D.name) in
        let size = if quick then D.quick_size else D.default_size in
        let reference = D.reference ~size in
        let dms =
          Measure.sweep ~repeats ~ladder (fun procs ->
              Repro_dist.Farm.sample ~transport:dist_transport ~procs ~size
                (module D))
        in
        let ems =
          Measure.sweep ~repeats ~ladder (fun cores ->
              Exec_workload.sample (module W) ~size ~cores)
        in
        List.iter
          (fun (m : Measure.measurement) ->
            if m.result <> reference then
              failwith
                (Printf.sprintf "%s on %d %s: checksum mismatch" m.workload
                   m.workers
                   (Measure.backend_name m.backend)))
          (dms @ ems);
        Printf.printf "\n-- %s, size %d (%s): both backends, checksum %d --\n"
          D.name size D.size_doc reference;
        let t =
          Repro_util.Tablefmt.create
            ~aligns:
              (Repro_util.Tablefmt.Left
              :: List.map (fun _ -> Repro_util.Tablefmt.Right) ladder)
            ("speedup" :: List.map string_of_int ladder)
        in
        let row label ms =
          Repro_util.Tablefmt.add_row t
            (label
            :: List.map
                 (fun (m : Measure.measurement) ->
                   Printf.sprintf "%.2f" m.speedup)
                 ms)
        in
        row "processes (Eden/GUM)" dms;
        row "domains (GpH)" ems;
        Repro_util.Tablefmt.print t;
        Printf.printf "per-process-count detail (Eden side):\n";
        Repro_util.Tablefmt.print (Measure.to_table dms);
        dms @ ems)
      Dist_workload.all
  in
  let doc =
    match Measure.json_document ms with
    | Repro_util.Json_out.Obj fields ->
        Repro_util.Json_out.Obj
          (fields @ [ ("transport_calibration", calibration_json ()) ])
    | other -> other
  in
  Repro_util.Json_out.to_file "BENCH_dist.json" doc;
  Printf.printf "\nwrote BENCH_dist.json (%d measurements, both backends)\n"
    (List.length ms)

(* ------------------------------------------------------------------ *)
(* Minor-heap sweep                                                    *)
(* ------------------------------------------------------------------ *)

(* The paper's big-allocation-area optimisation (Sec. IV-B) tunes the
   per-CPU allocation area to trade minor-GC frequency against cache
   locality.  The OCaml 5 analogue is the per-domain minor heap,
   sized by [OCAMLRUNPARAM s=<words>] — which is only read at startup,
   so each setting re-executes this binary with the environment
   variable set and a [--minor-heap-child] marker. *)

let minor_heap_settings = [ 65_536; 262_144; 1_048_576; 4_194_304 ]

let minor_heap_workload () =
  List.find
    (fun (module W : Exec_workload.S) -> W.name = "sumeuler")
    Exec_workload.all

let minor_heap_child () =
  let (module W) = minor_heap_workload () in
  let size = if quick then W.quick_size else W.default_size in
  let cores = min 2 (Domain.recommended_domain_count ()) in
  let m =
    Measure.measure ~repeats:2 (fun () ->
        Exec_workload.sample (module W) ~size ~cores)
  in
  print_string (Repro_util.Json_out.to_string (Measure.json_document [ m ]))

let minor_heap_sweep () =
  hr "Minor-heap sweep: OCAMLRUNPARAM s=<words> vs GC counters";
  let (module W) = minor_heap_workload () in
  Printf.printf
    "workload %s at %d domain(s); each setting runs in a fresh process\n"
    W.name
    (min 2 (Domain.recommended_domain_count ()));
  let header = Measure.env_header () in
  let rows =
    List.filter_map
      (fun words ->
        Unix.putenv "OCAMLRUNPARAM" (Printf.sprintf "s=%d" words);
        let ic =
          Unix.open_process_in
            (Filename.quote Sys.executable_name ^ " --minor-heap-child")
        in
        let buf = Buffer.create 256 in
        (try
           while true do
             Buffer.add_channel buf ic 1
           done
         with End_of_file -> ());
        match (Unix.close_process_in ic, Buffer.contents buf) with
        | Unix.WEXITED 0, s -> (
            let module J = Repro_util.Json_in in
            match Option.bind (J.member "measurements" (J.parse s)) J.to_list with
            | Some [ row ] -> Some (words, row)
            | _ | (exception J.Parse_error _) ->
                Printf.printf "  s=%d: unparseable child output\n" words;
                None)
        | _ ->
            Printf.printf "  s=%d: child run failed\n" words;
            None)
      minor_heap_settings
  in
  let t =
    Repro_util.Tablefmt.create
      ~aligns:
        Repro_util.Tablefmt.[ Right; Right; Right; Right; Right; Right ]
      [
        "minor heap (words)"; "mean"; "minor GCs"; "major GCs"; "minor words";
        "promoted";
      ]
  in
  let get j key f = Option.value ~default:0.0 (Option.bind (Repro_util.Json_in.member key j) f) in
  List.iter
    (fun (words, j) ->
      let num key = get j key Repro_util.Json_in.to_float in
      Repro_util.Tablefmt.add_row t
        [
          string_of_int words;
          Printf.sprintf "%.2f ms" (num "mean_ns" /. 1e6);
          Printf.sprintf "%.0f" (num "gc_minor_collections");
          Printf.sprintf "%.0f" (num "gc_major_collections");
          Printf.sprintf "%.3e" (num "gc_minor_words");
          Printf.sprintf "%.3e" (num "gc_promoted_words");
        ])
    rows;
  Repro_util.Tablefmt.print t;
  Repro_util.Json_out.to_file "BENCH_minorheap.json"
    (Repro_util.Json_out.Obj
       (("schema", Repro_util.Json_out.Str "repro/bench-minorheap/v1")
        :: header
       @ [
           ( "settings",
             Repro_util.Json_out.List
               (List.map
                  (fun (words, j) ->
                    Repro_util.Json_out.Obj
                      [
                        ("minor_heap_words", Repro_util.Json_out.Int words);
                        ("measurement", j);
                      ])
                  rows) );
         ]));
  Printf.printf "wrote BENCH_minorheap.json (%d settings)\n" (List.length rows)

let () =
  (* dist-worker hook first: when the eden-vs-gph section re-executes
     this binary as a PE, it must not run the harness *)
  Repro_dist.Worker.maybe_run Sys.argv;
  let rec section = function
    | "--dist-transport" :: _ :: rest -> section rest
    | a :: rest -> a :: section rest
    | [] -> []
  in
  match section (List.tl (Array.to_list Sys.argv)) with
  | [ "--transport-echo" ] -> transport_echo_child ()
  | [ "--transport-echo-shm"; path ] -> shm_echo_child path
  | [ "--minor-heap-child" ] -> minor_heap_child ()
  | [ "--minor-heap" ] -> minor_heap_sweep ()
  | [ "--transport" ] -> transport_calibration ()
  | [ "--metrics-overhead" ] -> metrics_overhead ()
  | [ "--eden-vs-gph" ] -> eden_vs_gph ()
  | [] ->
      Printf.printf
        "Measurement harness: 'Comparing and Optimising Parallel Haskell \
         Implementations for Multicore Machines' (ICPP 2009)\n";
      if quick then Printf.printf "(quick mode: reduced sizes)\n";
      sim_vs_real ();
      eden_vs_gph ();
      transport_calibration ();
      metrics_overhead ()
  | _ ->
      prerr_endline
        "usage: main.exe [--eden-vs-gph | --transport | --metrics-overhead \
         | --minor-heap] [--dist-transport sock|shm]";
      exit 2
