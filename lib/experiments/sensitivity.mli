(** Calibration-sensitivity analysis: re-run the Fig.-1 experiment with
    every key cost constant scaled down (x0.7) and up (x1.4), checking
    which qualitative properties survive — the {e weak shape} (plain
    slowest GpH, Eden fastest) and the {e strong shape} (the full
    monotone row ordering).  See EXPERIMENTS.md. *)

type perturbation = { p_label : string; apply : Repro_parrts.Config.t -> Repro_parrts.Config.t }

type outcome = {
  o_label : string;
  weak_shape : bool;
  strong_shape : bool;
  times : (string * float) list;
}

type result = { outcomes : outcome list; n : int }

val run : ?n:int -> unit -> result

(** Does the weak shape hold under every perturbation? *)
val all_weak : result -> bool

(** Fraction of perturbations under which the strict ordering holds. *)
val strong_fraction : result -> float

val print : result -> unit
