(** Model-checking scenarios for the executor's lock-free protocols
    (Chase–Lev deque, Future eager-black-hole claim, Pool park/unpark
    handshake) and deliberately broken mutants the checker must catch.
    See [protocols.ml] for the scenario descriptions. *)

exception Boom
(** Raised by the body in the future-exception scenario. *)

type expectation =
  | Must_pass  (** a real protocol: every interleaving satisfies the check *)
  | Must_fail  (** a seeded bug: the checker must find a violating schedule *)

type config = {
  cname : string;
  descr : string;
  expect : expectation;
  scenario : unit -> (string * (unit -> unit)) list * (unit -> unit);
}

val run : ?on_trace:(Event.t list -> unit) -> config -> Sched.result
(** Explore the config exhaustively with {!Sched.check}. *)

val verdict : config -> Sched.result -> bool
(** Did the result match the config's expectation? *)

val all : config list

val find : string -> config
(** Look a config up by [cname]; raises [Invalid_argument] if absent. *)
