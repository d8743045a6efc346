(** Test runner: aggregates every suite.

    The distributed-executor tests re-execute this binary as their
    worker processes, so the worker hook must run before Alcotest
    parses argv. *)

let () = Repro_dist.Worker.maybe_run Sys.argv

let () =
  Alcotest.run "repro"
    [
      Test_util.suite;
      Test_deque.suite;
      Test_exec.suite;
      Test_check.suite;
      Test_sim.suite;
      Test_heap.suite;
      Test_rts.suite;
      Test_gph.suite;
      Test_eden.suite;
      Test_skeletons.suite;
      Test_workloads.suite;
      Test_extensions.suite;
      Test_extras.suite;
      Test_eventlog.suite;
      Test_gum.suite;
      Test_experiments.suite;
      Test_analysis.suite;
      Test_tracer.suite;
      Test_metrics.suite;
      Test_dist.suite;
    ]
