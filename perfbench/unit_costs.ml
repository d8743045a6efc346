(** Unit costs of the layers the end-to-end jobs are built from, timed
    by calling each layer's public functions directly: the median
    over a few rounds of the cost of one operation.  Run once per
    traced run, after the traced jobs. *)

module Wire = Repro_dist.Wire
module Ws_deque = Repro_deque.Ws_deque

let rounds = 5

(* Median over [rounds] of [timed ops] / [ops], where [timed] returns
   the nanoseconds its measured part took. *)
let per_op ~ops timed =
  Timing.median
    (List.init rounds (fun _ -> float_of_int (timed ops) /. float_of_int ops))

let loop_ns ops f = snd (Timing.time_ns (fun () -> for i = 1 to ops do f i done))

let deque_push_pop ~ops =
  let q = Ws_deque.create () in
  per_op ~ops (fun ops ->
      loop_ns ops (fun i ->
          Ws_deque.push q i;
          ignore (Ws_deque.pop q)))

(* Uncontended steals from a deque filled outside the timed part. *)
let deque_steal ~ops =
  let q = Ws_deque.create () in
  per_op ~ops (fun ops ->
      for i = 1 to ops do
        Ws_deque.push q i
      done;
      loop_ns ops (fun _ -> ignore (Ws_deque.steal q)))

(* A spark forced by its creator on a 1-domain pool: the fixed cost
   every spark of the domains workload pays before any stealing. *)
let spark_force ~ops =
  Repro_exec.Pool.with_pool ~cores:1 (fun () ->
      per_op ~ops (fun ops ->
          loop_ns ops (fun _ ->
              Repro_exec.Future.force (Repro_exec.Future.spark (fun () -> ())))))

let counter_incr ~ops =
  let module M = Repro_metrics.Metrics in
  let c = M.counter ~registry:(M.create ()) "perfbench_probe_total" in
  per_op ~ops (fun ops -> loop_ns ops (fun _ -> M.incr c))

(* One small message sent and received over a socketpair, both ends in
   this process, so the figure is the software cost of the transport
   with no scheduler hand-off in it. *)
let sock_one_way ~ops =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let ca = Wire.create ~read_fd:a ~write_fd:a ()
      and cb = Wire.create ~read_fd:b ~write_fd:b () in
      per_op ~ops (fun ops ->
          loop_ns ops (fun _ ->
              Wire.send ca "x";
              ignore (Wire.recv cb))))

(* Marshal cost per KiB of a flat float payload, the shape of the
   matmul and apsp rows the farm ships. *)
let marshal ~ops =
  let arr = Array.init 16384 float_of_int in
  let s = Marshal.to_string arr [] in
  let kb = float_of_int (String.length s) /. 1024.0 in
  let pack = per_op ~ops (fun ops -> loop_ns ops (fun _ -> ignore (Marshal.to_string arr []))) in
  let unpack =
    per_op ~ops (fun ops ->
        loop_ns ops (fun _ -> ignore (Marshal.from_string s 0 : float array)))
  in
  (pack /. kb, unpack /. kb)

(* Schedule-then-dispatch cost of one no-op simulator event. *)
let engine_event ~ops =
  per_op ~ops (fun ops ->
      let e = Repro_sim.Engine.create () in
      snd
        (Timing.time_ns (fun () ->
             for i = 1 to ops do
               Repro_sim.Engine.at e i ignore
             done;
             ignore (Repro_sim.Engine.run e))))

(** Every unit cost as [(metric, unit, value)]; [smoke] shrinks the
    operation counts twentyfold. *)
let measure ~smoke =
  let ops n = if smoke then n / 20 else n in
  let pack, unpack = marshal ~ops:(ops 200) in
  [
    ("deque.push_pop_ns", "ns", deque_push_pop ~ops:(ops 1_000_000));
    ("deque.steal_ns", "ns", deque_steal ~ops:(ops 1_000_000));
    ("exec.spark_force_ns", "ns", spark_force ~ops:(ops 200_000));
    ("metrics.counter_incr_ns", "ns", counter_incr ~ops:(ops 1_000_000));
    ("dist.sock_one_way_ns", "ns", sock_one_way ~ops:(ops 20_000));
    ("dist.marshal_pack_ns_per_kb", "ns/KB", pack);
    ("dist.marshal_unpack_ns_per_kb", "ns/KB", unpack);
    ("sim.engine_ns_per_event", "ns", engine_event ~ops:(ops 200_000));
  ]
