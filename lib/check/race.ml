(** FastTrack-style vector-clock happens-before analysis over recorded
    traces (Flanagan & Freund, PLDI 2009, adapted to a pure-atomics
    setting).

    Every cell in these protocols is an atomic, so classical "data
    race = undefined behaviour" does not apply; what the detector flags
    is the *protocol* smell that atomics make easy to write: two plain
    writes to the same cell that are not ordered by happens-before.  In
    a correct lock-free protocol, conflicting writes are mediated by a
    read-modify-write (CAS / fetch-and-add) — an unordered plain-write
    pair means a blind [set] can clobber a concurrent update, exactly
    the bug in the lazy (non-CAS) black-holing variant the paper rejects
    in Sec. IV-A.3.

    Happens-before edges:
    - program order within each thread;
    - release/acquire through each cell: every write or RMW releases the
      writer's clock into the cell's sync clock; every read or RMW
      acquires it.  (Atomics are SC in OCaml, so this is sound for the
      traces the checker produces; it is deliberately coarse — we care
      about ordering, not about SC totality.)
    - setup (thread -1) happens-before every thread's first step. *)

module IM = Map.Make (Int)

type vc = int IM.t (* thread id -> clock component; absent = 0 *)

let vc_get (c : vc) t = match IM.find_opt t c with None -> 0 | Some n -> n
let vc_join a b = IM.union (fun _ x y -> Some (max x y)) a b
let vc_tick t c = IM.add t (vc_get c t + 1) c

(* a ≤ b pointwise *)
let vc_leq a b = IM.for_all (fun t n -> n <= vc_get b t) a

type race = {
  loc : int;
  loc_name : string;
  first : Event.t;  (** the earlier conflicting write *)
  second : Event.t;  (** the unordered later write *)
}

type report = {
  races : race list;
  locations : int;  (** distinct cells seen in the trace *)
  events_analysed : int;
}

type cell_state = {
  mutable sync : vc;  (** join of clocks released into this cell *)
  mutable last_write : (Event.t * vc) option;
      (** last plain write and the writer's clock at that write *)
  mutable history : Event.t list;  (** newest first, for reports *)
}

let analyse (trace : Event.t list) : report =
  let threads : (int, vc) Hashtbl.t = Hashtbl.create 8 in
  let cells : (int, cell_state) Hashtbl.t = Hashtbl.create 16 in
  let races = ref [] in
  let nevents = ref 0 in
  let clock_of tid =
    match Hashtbl.find_opt threads tid with
    | Some c -> c
    | None ->
        (* First step of a fresh thread: it was spawned after setup, so
           it inherits the setup clock (spawn edge). *)
        let c =
          if tid >= 0 then
            match Hashtbl.find_opt threads (-1) with
            | Some setup -> setup
            | None -> IM.empty
          else IM.empty
        in
        Hashtbl.replace threads tid c;
        c
  in
  let cell_of loc =
    match Hashtbl.find_opt cells loc with
    | Some s -> s
    | None ->
        let s = { sync = IM.empty; last_write = None; history = [] } in
        Hashtbl.replace cells loc s;
        s
  in
  List.iter
    (fun (ev : Event.t) ->
      if ev.loc >= 0 && ev.thread <> -2 then begin
        incr nevents;
        let tid = ev.thread in
        let c = clock_of tid in
        let s = cell_of ev.loc in
        s.history <- ev :: s.history;
        let acc = Event.access_of_kind ev.kind in
        (* Acquire: reads and RMWs synchronise with prior releases. *)
        let c =
          match acc with
          | Event.Read | Event.Rmw -> vc_join c s.sync
          | Event.Write -> c
        in
        (* Write-write check: a plain write racing the previous plain
           write.  RMWs are atomic updates — they serialise with
           everything through the acquire above, so they never race. *)
        (match acc with
        | Event.Write ->
            (match s.last_write with
            | Some (prev, prev_vc)
              when prev.Event.thread <> tid && not (vc_leq prev_vc c) ->
                races :=
                  { loc = ev.loc; loc_name = ev.loc_name; first = prev; second = ev }
                  :: !races
            | _ -> ())
        | Event.Read | Event.Rmw -> ());
        (* Release: writes and RMWs publish the writer's clock. *)
        (match acc with
        | Event.Write | Event.Rmw ->
            let released = vc_tick tid c in
            s.sync <- vc_join s.sync released;
            (* Store the *ticked* clock (the FastTrack epoch): ordering
               with a later write requires having acquired this release,
               i.e. seen the writer's own component. *)
            if acc = Event.Write then s.last_write <- Some (ev, released)
            else s.last_write <- None
        | Event.Read -> ());
        Hashtbl.replace threads tid (vc_tick tid c)
      end)
    trace;
  {
    races = List.rev !races;
    locations = Hashtbl.length cells;
    events_analysed = !nevents;
  }
