(** Algorithmic and topology skeletons for Eden (paper Sec. II-A).

    These are the higher-order parallel building blocks the paper's
    Eden benchmarks use: [parMapFarm], [masterWorker] (placed by
    {!Repro_mp.Star}, the process farm's placement too), and the
    topology skeletons [ring] (used by the shortest-paths ring) and
    [torus] (used by Cannon's matrix multiplication).

    Every skeleton is an ordinary higher-order function over the Eden
    process/channel primitives — and, as the paper stresses, thereby
    remains amenable to customisation. *)

module Listx = Repro_util.Listx
module Api = Repro_parrts.Rts.Api
module Star = Repro_mp.Star
open Eden

(** Number of PEs available ([noPE] in Eden). *)
let no_pe () = Api.ncaps ()

(* ------------------------------------------------------------------ *)
(* Map-like skeletons                                                  *)
(* ------------------------------------------------------------------ *)

(** [par_map_farm]: the usual Eden farm — [np] processes (default one
    per PE), inputs dealt round-robin ([unshuffle]), outputs
    re-interleaved ([shuffle]).  Semantically equal to [List.map f]. *)
let par_map_farm ?np ~tr_in ~tr_out f xs =
  let np = match np with Some n -> n | None -> no_pe () in
  let pieces = Listx.unshuffle np xs in
  let results =
    spawn ~tr_in:(t_list tr_in) ~tr_out:(t_list tr_out) (List.map f) pieces
  in
  Listx.shuffle results

(* ------------------------------------------------------------------ *)
(* Master/worker                                                       *)
(* ------------------------------------------------------------------ *)

(** [master_worker ~np ~prefetch ~tr_task ~tr_res f tasks]: a master
    process farms a dynamically growing task pool out to [np] worker
    processes.  Each worker application [f t] yields new tasks plus a
    result ([a -> ([a], b)]), supporting backtracking/branch-and-bound
    style search (paper Sec. II-A).  {!Repro_mp.Star} places the tasks,
    [prefetch] per worker at most, as it does for the process farm.
    Results are returned in completion order. *)
let master_worker ?np ?(prefetch = 2) ~tr_task ~tr_res
    (f : 'a -> 'a list * 'b) (initial : 'a list) : 'b list =
  let np = match np with Some n -> n | None -> max 1 (no_pe () - 1) in
  let me = Api.my_cap () in
  let npes = Api.ncaps () in
  let worker_pes = List.init np (fun i -> (me + 1 + i) mod npes) in
  (* task streams, one per worker, owned by that worker's PE; each task
     travels with its number, which costs nothing extra *)
  let task_streams = List.map (fun pe -> new_stream_at ~pe) worker_pes in
  let tr_numbered =
    {
      bytes = (fun ((_, t) : int * 'a) -> tr_task.bytes t);
      nf_cycles = (fun (_, t) -> tr_task.nf_cycles t);
    }
  in
  (* result stream owned by the master: worker, task, new tasks, result *)
  let results : (int * int * 'a list * 'b) stream = new_stream () in
  let tr_reply =
    {
      bytes =
        (fun ((_, _, ts, r) : int * int * 'a list * 'b) ->
          32 + List.fold_left (fun acc t -> acc + tr_task.bytes t) 0 ts
          + tr_res.bytes r);
      nf_cycles =
        (fun (_, _, ts, r) ->
          8 + List.fold_left (fun acc t -> acc + tr_task.nf_cycles t) 0 ts
          + tr_res.nf_cycles r);
    }
  in
  (* start workers *)
  List.iteri
    (fun wid (pe, ts) ->
      instantiate_at ~pe (fun () ->
          let rec loop () =
            match next ts with
            | None -> ()
            | Some (id, task) ->
                let new_tasks, result = f task in
                put tr_reply results (wid, id, new_tasks, result);
                loop ()
          in
          loop ()))
    (List.combine worker_pes task_streams);
  let task_arr = Array.of_list task_streams in
  let send ({ worker; task; payload } : 'a Star.placement) =
    put tr_numbered task_arr.(worker) (task, payload)
  in
  (* master loop *)
  let rec master star out =
    if Star.finished star then out
    else
      match next results with
      | None -> out
      | Some (worker, task, new_tasks, result) -> (
          match Star.result star ~worker ~round:0 ~task new_tasks with
          | Ok (star, placed) ->
              List.iter send placed;
              master star (result :: out)
          | Error _ -> invalid_arg "Skeletons.master_worker: ledger error")
  in
  let star, placed =
    Star.start ~workers:np ~prefetch ~round:0 ~pinned:false initial
  in
  List.iter send placed;
  let out = master star [] in
  (* shut the workers down *)
  List.iter close task_streams;
  List.rev out

(* ------------------------------------------------------------------ *)
(* Topology skeletons                                                  *)
(* ------------------------------------------------------------------ *)

(** [ring ~n ~tr_ring ~distribute ~worker]: [n] processes arranged in a
    unidirectional ring (paper Sec. II-A: topology skeletons).  Process
    [k] receives [distribute k] as its static input, reads ring traffic
    from its left neighbour, writes ring traffic to its right neighbour
    and finally produces an output; the parent collects all outputs in
    ring order.

    The worker receives [(recv, send, close_right)]: [recv] yields
    [None] once the left neighbour closed its stream. *)
let ring ~n ~tr_ring ~tr_out
    ~(distribute : int -> 'i)
    ~(worker :
       int ->
       'i ->
       (unit -> 'r option) ->
       ('r -> unit) ->
       (unit -> unit) ->
       'o) : 'o list =
  if n <= 0 then invalid_arg "Skeletons.ring: n must be positive";
  let npes = Api.ncaps () in
  let me = Api.my_cap () in
  let pe_of k = (me + 1 + k) mod npes in
  (* ring link k: stream from process (k-1+n) mod n into process k,
     owned by process k's PE *)
  let links = Array.init n (fun k -> new_stream_at ~pe:(pe_of k)) in
  let outs = List.init n (fun _ -> new_chan ()) in
  List.iteri
    (fun k out ->
      instantiate_at ~pe:(pe_of k) (fun () ->
          let left = links.(k) in
          let right = links.((k + 1) mod n) in
          let recv () = next left in
          let send_right r = put tr_ring right r in
          let close_right () = close right in
          let o = worker k (distribute k) recv send_right close_right in
          send tr_out out o))
    outs;
  List.map recv outs

(** [torus ~rows ~cols ~tr_a ~tr_b ~worker]: a 2-D toroid of processes;
    within each row, ['a]-values circulate leftwards and within each
    column ['b]-values circulate upwards — the communication structure
    of Cannon's algorithm.  Worker [(r,c)] gets receive/send closures
    for both rings plus its coordinates. *)
let torus ~rows ~cols ~tr_a ~tr_b ~tr_out
    ~(worker :
       row:int ->
       col:int ->
       recv_a:(unit -> 'a option) ->
       send_a:('a -> unit) ->
       recv_b:(unit -> 'b option) ->
       send_b:('b -> unit) ->
       'o) : 'o list =
  if rows <= 0 || cols <= 0 then invalid_arg "Skeletons.torus: bad dimensions";
  let n = rows * cols in
  let npes = Api.ncaps () in
  let me = Api.my_cap () in
  let pe_of r c = (me + 1 + (r * cols) + c) mod npes in
  (* a_in.(r).(c): horizontal stream into (r,c), i.e. from (r, c+1)
     [A-blocks shift left]; b_in.(r).(c): vertical stream into (r,c),
     i.e. from (r+1, c) [B-blocks shift up]. *)
  let a_in = Array.init rows (fun r -> Array.init cols (fun c -> new_stream_at ~pe:(pe_of r c))) in
  let b_in = Array.init rows (fun r -> Array.init cols (fun c -> new_stream_at ~pe:(pe_of r c))) in
  let outs = List.init n (fun _ -> new_chan ()) in
  List.iteri
    (fun idx out ->
      let r = idx / cols and c = idx mod cols in
      instantiate_at ~pe:(pe_of r c) (fun () ->
          let recv_a () = next a_in.(r).(c) in
          let recv_b () = next b_in.(r).(c) in
          (* sending A leftwards: our A goes to (r, c-1)'s a_in *)
          let send_a v = put tr_a a_in.(r).((c + cols - 1) mod cols) v in
          let send_b v = put tr_b b_in.((r + rows - 1) mod rows).(c) v in
          let o = worker ~row:r ~col:c ~recv_a ~send_a ~recv_b ~send_b in
          close a_in.(r).((c + cols - 1) mod cols);
          close b_in.((r + rows - 1) mod rows).(c);
          send tr_out out o))
    outs;
  List.map recv outs
