(** The coordinator of a star of workers: where each task goes, and the
    exactly-once ledger of its results (paper Sec. II-A's masterWorker
    skeleton and Sec. III-B's PEs around one coordinator).  Both the
    simulated Eden skeleton ([Repro_core.Skeletons.master_worker]) and
    the process farm ([Repro_dist.Farm]) are driven by it.

    Each worker has [prefetch] slots.  {!start} primes them in
    worker-major order (worker 0's slots, then worker 1's, ...); after
    that every accepted result frees its worker's slot, and a free slot
    takes the oldest pooled task.  So a result is answered with that
    worker's next task, or with nothing once the pool is empty; a slot
    left free waits, oldest first, for the tasks a later result adds.
    In a pinned round task [i] goes to worker [i mod workers] as soon
    as it exists, and a pinned result frees no slot.

    Tasks are numbered from 0 in the order they enter the round, the
    initial list first.  The state is immutable: an error leaves the
    caller's state as it was. *)

type 'a t

(** One task placed on one worker. *)
type 'a placement = { worker : int; task : int; payload : 'a }

type error =
  | Wrong_round of { round : int; expected : int }
      (** the result names another round than this one *)
  | Unknown_task of int
      (** no task of that number is held by the worker that returned
          it *)
  | Duplicate of int  (** the task's result was already accepted *)

(** [start ~workers ~prefetch ~round ~pinned tasks] opens a round and
    places its first tasks.
    @raise Invalid_argument if [workers < 1] or [prefetch < 1]. *)
val start :
  workers:int ->
  prefetch:int ->
  round:int ->
  pinned:bool ->
  'a list ->
  'a t * 'a placement list

(** [result st ~worker ~round ~task adds] accepts [worker]'s result for
    [task], adds the tasks [adds] to the round, and returns the
    placements that follow, in the order to send them. *)
val result :
  'a t ->
  worker:int ->
  round:int ->
  task:int ->
  'a list ->
  ('a t * 'a placement list, error) result

(** Every task of the round has had its result accepted. *)
val finished : 'a t -> bool
