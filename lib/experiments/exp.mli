(** Experiment harness: run workloads under named runtime versions and
    collect the measurements the paper reports. *)

type row = {
  label : string;
  config : Repro_parrts.Config.t;
  elapsed_s : float;
  report : Repro_parrts.Report.t;
}

val run_row : Repro_core.Versions.version -> (unit -> 'a) -> row

(** A speedup series: elapsed time per core count, normalised to the
    same version on one core (the paper's "relative speedup"). *)
type series = {
  s_label : string;
  core_counts : int list;
  times_s : float list;
  speedups : float list;
}

(** Measure [work] under [version_at c] for every core count [c],
    normalising against the 1-core run (measured separately when 1 is
    not in [core_counts]). *)
val series :
  label:string ->
  core_counts:int list ->
  version_at:(int -> Repro_core.Versions.version) ->
  work:(ncaps:int -> unit -> unit) ->
  series

val pp_speedup_table : Format.formatter -> series list -> unit

(** ASCII speedup plot (x = cores, y = speedup), in the spirit of the
    paper's figures. *)
val render_speedup_plot : ?height:int -> series list -> string
