(** The workloads, as [Repro_exec.Workload] defines them for both real
    backends; [Farm] runs their private-heap round. *)

include Repro_exec.Workload
