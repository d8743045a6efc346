(** In-memory span recorder for the traced run: spans are kept in a
    list while the run lasts and written out once, at exit, as a
    Chrome trace-event document (complete ["X"] events on one track),
    so recording costs no I/O inside a job.  Nesting follows from the
    timestamps; every span of one job carries the job's id as its
    [job] arg. *)

module J = Repro_util.Json_out

type span = {
  name : string;
  start_ns : int;
  stop_ns : int;
  args : (string * J.t) list;
}

type t = { mutable spans : span list; mutable job : int; epoch_ns : int }

let create () = { spans = []; job = 0; epoch_ns = Timing.now_ns () }

(** Spans added from now on belong to job [id]. *)
let set_job t id = t.job <- id

(** Add a closed span of the current job.  Callers read the clock
    around the call they measure and build [args] afterwards, so
    counters the call returns land on the span without their cost
    landing inside it. *)
let add t ~name ~start_ns ~stop_ns args =
  t.spans <- { name; start_ns; stop_ns; args = ("job", J.Int t.job) :: args } :: t.spans

let to_json ~process_name t =
  let us ns = J.Float (float_of_int ns /. 1000.0) in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("ph", J.Str "X");
        ("ts", us (s.start_ns - t.epoch_ns));
        ("dur", us (s.stop_ns - s.start_ns));
        ("pid", J.Int 1);
        ("tid", J.Int 0);
        ("args", J.Obj s.args);
      ]
  in
  let meta =
    J.Obj
      [
        ("name", J.Str "process_name");
        ("ph", J.Str "M");
        ("pid", J.Int 1);
        ("tid", J.Int 0);
        ("args", J.Obj [ ("name", J.Str process_name) ]);
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (meta :: List.rev_map event t.spans));
      ("displayTimeUnit", J.Str "ms");
    ]
