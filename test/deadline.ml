(** A deadline for a test case, so that a hang fails the named case
    instead of stalling the suite. *)

(* This process's children (the PEs of the farms a case runs), from
   every thread's [children] list. *)
let children () =
  List.concat_map
    (fun tid ->
      match
        In_channel.with_open_text
          (Printf.sprintf "/proc/self/task/%s/children" tid)
          In_channel.input_all
      with
      | s -> List.filter_map int_of_string_opt (String.split_on_char ' ' s)
      | exception Sys_error _ -> [])
    (Array.to_list (Sys.readdir "/proc/self/task"))

(* [within ~seconds what f] runs [f ()] on a domain of its own and
   returns what it returns, or raises what it raises.  Once [f] has
   run for [seconds], every child of this process is killed (a case
   that started none has nothing to kill), so a farm's receives see
   its PEs gone and [Farm.run]'s handler reaps them; then [what]
   fails.  A domain still running after that is never joined. *)
let within ~seconds what f =
  let outcome = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set outcome
          (Some
             (match f () with
             | v -> Ok v
             | exception e -> Error (e, Printexc.get_raw_backtrace ()))))
  in
  let wait seconds =
    let deadline = Unix.gettimeofday () +. seconds in
    while Atomic.get outcome = None && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done
  in
  wait seconds;
  match Atomic.get outcome with
  | Some r -> (
      Domain.join d;
      match r with Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
  | None ->
      let killed = children () in
      List.iter
        (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        killed;
      if killed <> [] then wait 10.0;
      if Atomic.get outcome <> None then Domain.join d;
      Alcotest.failf "%s: still running after %.0f s (%d child process(es) killed)"
        what seconds (List.length killed)
