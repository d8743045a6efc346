(** Imperative binary-heap priority queue with stable tie-breaking.

    Keys are integers (virtual-time nanoseconds in the simulator).  Ties
    are broken by insertion order, which makes discrete-event simulation
    runs fully deterministic: two events scheduled for the same instant
    fire in the order they were scheduled. *)

(* Slots are [Free] or an inline-record entry: a popped slot is reset
   to [Free], so the backing array does not retain popped keys/values.
   [Free] never appears below [q.size]: every access is guarded by
   it. *)
type 'a slot = Free | Entry of { key : int; seq : int; value : 'a }

type 'a t = {
  mutable arr : 'a slot array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { arr = [||]; size = 0; next_seq = 0 }
let length q = q.size
let is_empty q = q.size = 0

(* [lt a b] : does entry [a] order strictly before entry [b]? *)
let lt a b =
  match (a, b) with
  | Entry a, Entry b -> a.key < b.key || (a.key = b.key && a.seq < b.seq)
  | _ -> assert false

let grow q =
  let cap = Array.length q.arr in
  if q.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let narr = Array.make ncap Free in
    Array.blit q.arr 0 narr 0 q.size;
    q.arr <- narr
  end

let add q key value =
  let e = Entry { key; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  grow q;
  (* sift up *)
  let i = ref q.size in
  q.size <- q.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if lt e q.arr.(parent) then begin
      q.arr.(!i) <- q.arr.(parent);
      i := parent
    end
    else continue := false
  done;
  q.arr.(!i) <- e

let min_key q =
  if q.size = 0 then None
  else match q.arr.(0) with Entry e -> Some e.key | Free -> assert false

exception Empty

let pop q =
  if q.size = 0 then raise Empty;
  let top =
    match q.arr.(0) with
    | Entry e -> (e.key, e.value)
    | Free -> assert false
  in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    let e = q.arr.(q.size) in
    q.arr.(q.size) <- Free;
    (* sift down from the root *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      let probe j = if j < q.size && lt q.arr.(j) e then smallest := j in
      probe l;
      (if l < q.size && r < q.size then
         if lt q.arr.(r) q.arr.(l) && lt q.arr.(r) e then smallest := r
         else ()
       else probe r);
      if !smallest = !i then continue := false
      else begin
        q.arr.(!i) <- q.arr.(!smallest);
        i := !smallest
      end
    done;
    q.arr.(!i) <- e
  end
  else q.arr.(0) <- Free;
  top

let pop_opt q = if q.size = 0 then None else Some (pop q)

(* Drain into a list, in priority order.  Destroys the queue contents. *)
let drain q =
  let rec go acc = if is_empty q then List.rev acc else go (pop q :: acc) in
  go []

let of_list l =
  let q = create () in
  List.iter (fun (k, v) -> add q k v) l;
  q
