(** Calibration-sensitivity analysis.

    The simulator's cost constants (GC copying rate, barrier costs,
    steal latencies, poll intervals, …) were calibrated against the
    paper's Fig. 1.  A reproduction is only credible if its qualitative
    conclusions survive perturbation of those constants, so this module
    re-runs the Fig.-1 experiment with each key constant scaled up and
    down and checks which qualitative properties still hold:

    - {b weak shape}: plain GHC-6.9 is the slowest GpH version and
      Eden is fastest overall;
    - {b strong shape}: the full monotone row ordering of Fig. 1.

    The integration tests require the weak shape to hold for {e every}
    perturbation and the strong shape for a clear majority. *)

module Versions = Repro_core.Versions
module Config = Repro_parrts.Config
module Gc_model = Repro_heap.Gc_model

type perturbation = { p_label : string; apply : Config.t -> Config.t }

let scale_i f v = int_of_float (Float.round (f *. float_of_int v))

let perturbations : (string * float -> perturbation) list =
  [
    (fun (dir, f) ->
      {
        p_label = Printf.sprintf "gc copy rate %s" dir;
        apply =
          (fun c ->
            { c with gc = { c.gc with Gc_model.copy_ns_per_byte = c.gc.Gc_model.copy_ns_per_byte *. f } });
      });
    (fun (dir, f) ->
      {
        p_label = Printf.sprintf "legacy barrier cost %s" dir;
        apply =
          (fun c ->
            {
              c with
              gc =
                {
                  c.gc with
                  Gc_model.sync_legacy_ns = scale_i f c.gc.Gc_model.sync_legacy_ns;
                };
            });
      });
    (fun (dir, f) ->
      {
        p_label = Printf.sprintf "nursery survival %s" dir;
        apply =
          (fun c ->
            { c with gc = { c.gc with Gc_model.survival = c.gc.Gc_model.survival *. f } });
      });
    (fun (dir, f) ->
      {
        p_label = Printf.sprintf "push poll interval %s" dir;
        apply =
          (fun c ->
            { c with push_poll_interval_ns = scale_i f c.push_poll_interval_ns });
      });
    (fun (dir, f) ->
      {
        p_label = Printf.sprintf "steal latency %s" dir;
        apply =
          (fun c ->
            {
              c with
              steal_attempt_ns = scale_i f c.steal_attempt_ns;
              steal_wake_ns = scale_i f c.steal_wake_ns;
            });
      });
    (fun (dir, f) ->
      {
        p_label = Printf.sprintf "thread creation %s" dir;
        apply = (fun c -> { c with thread_create_ns = scale_i f c.thread_create_ns });
      });
  ]

let all_perturbations ?(down = 0.7) ?(up = 1.4) () =
  List.concat_map
    (fun mk -> [ mk ("-30%", down); mk ("+40%", up) ])
    perturbations

type outcome = {
  o_label : string;
  weak_shape : bool;  (** plain slowest GpH, Eden fastest *)
  strong_shape : bool;  (** full Fig.-1 ordering *)
  times : (string * float) list;
}

let run_one ~n (p : perturbation) : outcome =
  let versions =
    List.map
      (fun (v : Versions.version) -> { v with config = p.apply v.config })
      (Versions.fig1_versions ())
  in
  let rows =
    List.map
      (fun (v : Versions.version) ->
        let is_eden = Config.is_distributed v.config in
        let _, report =
          Repro_parrts.Rts.run v.config (fun () ->
              if is_eden then ignore (Repro_workloads.Sumeuler.eden ~n ())
              else ignore (Repro_workloads.Sumeuler.gph ~n ()))
        in
        (v.label, Repro_parrts.Report.elapsed_s report))
      versions
  in
  let times = List.map snd rows in
  let weak_shape =
    match times with
    | [ plain; big; sync; steal; eden ] ->
        plain > big && plain > sync && plain > steal && eden < steal
        && eden < plain
    | _ -> false
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  { o_label = p.p_label; weak_shape; strong_shape = decreasing times; times = rows }

type result = { outcomes : outcome list; n : int }

let run ?(n = 8000) () =
  { outcomes = List.map (run_one ~n) (all_perturbations ()); n }

let all_weak r = List.for_all (fun o -> o.weak_shape) r.outcomes

let strong_fraction r =
  let held = List.length (List.filter (fun o -> o.strong_shape) r.outcomes) in
  float_of_int held /. float_of_int (max 1 (List.length r.outcomes))
