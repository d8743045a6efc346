module A = Repro_shim.Tatomic.Real
module Json = Repro_util.Json_out

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* ---------------- instruments ---------------- *)

type counter = { c_enabled : bool A.t; c_mask : int; c_cells : int A.t array }
type gauge = { g_cell : float A.t }

type hshard = {
  hs_cells : int A.t array;
  hs_sum : int A.t;
  hs_min : int A.t;
  hs_max : int A.t;
}

type histogram = {
  h_enabled : bool A.t;
  h_sub_bits : int;
  h_mask : int;
  h_shards : hshard option A.t array;
}

let shard_index mask = (Domain.self () :> int) land mask

let incr c =
  if A.get c.c_enabled then
    ignore (A.fetch_and_add c.c_cells.(shard_index c.c_mask) 1)

let add c n =
  if A.get c.c_enabled then
    ignore (A.fetch_and_add c.c_cells.(shard_index c.c_mask) n)

let set_gauge g v = A.set g.g_cell v

let fresh_hshard ~sub_bits =
  {
    hs_cells = Array.init (Hdr.nbuckets ~sub_bits) (fun _ -> A.make 0);
    hs_sum = A.make 0;
    hs_min = A.make max_int;
    hs_max = A.make min_int;
  }

let rec hshard h i =
  match A.get h.h_shards.(i) with
  | Some s -> s
  | None ->
      (* Lazy install, CASed exactly once per shard: histograms are
         sized in kilobytes, so unused shards stay unallocated. *)
      let s = fresh_hshard ~sub_bits:h.h_sub_bits in
      if A.compare_and_set h.h_shards.(i) None (Some s) then s else hshard h i

(* Monotone min/max: the CAS loop runs only while the extreme is still
   moving, i.e. a handful of times after startup — the steady-state
   path is one load and an untaken branch. *)
let rec update_min cell v =
  let cur = A.get cell in
  if v < cur && not (A.compare_and_set cell cur v) then update_min cell v

let rec update_max cell v =
  let cur = A.get cell in
  if v > cur && not (A.compare_and_set cell cur v) then update_max cell v

let observe h v =
  if A.get h.h_enabled then begin
    let v = if v < 0 then 0 else v in
    let s = hshard h (shard_index h.h_mask) in
    (* the count is not tracked separately: it is recovered at snapshot
       time by summing the cells, saving one XADD per record *)
    ignore (A.fetch_and_add s.hs_cells.(Hdr.index_of ~sub_bits:h.h_sub_bits v) 1);
    ignore (A.fetch_and_add s.hs_sum v);
    update_min s.hs_min v;
    update_max s.hs_max v
  end

(* ---------------- samples ---------------- *)

type value = Counter of float | Gauge of float | Hist of Hdr.snapshot

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_help : string;
  s_value : value;
}

type snapshot = { taken_ns : int; elapsed_ns : int; samples : sample list }

let canon_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let c_sample ?(help = "") ?(labels = []) name v =
  { s_name = name; s_labels = canon_labels labels; s_help = help; s_value = Counter v }

let g_sample ?(help = "") ?(labels = []) name v =
  { s_name = name; s_labels = canon_labels labels; s_help = help; s_value = Gauge v }

let h_sample ?(help = "") ?(labels = []) name h =
  { s_name = name; s_labels = canon_labels labels; s_help = help; s_value = Hist h }

let merge_value name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x +. y)
  | Gauge x, Gauge y -> Gauge (x +. y)
  | Hist x, Hist y -> Hist (Hdr.merge x y)
  | _ -> invalid_arg ("Metrics.merge: kind mismatch for " ^ name)

let merge_sample a b =
  {
    a with
    s_help = (if a.s_help <> "" then a.s_help else b.s_help);
    s_value = merge_value a.s_name a.s_value b.s_value;
  }

(* Combine duplicate (name, labels) keys, preserving first-appearance
   order — this is what makes live + collected + retired samples (and
   per-PE snapshots) composable with plain list append. *)
let canon_samples samples =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun s ->
      let key = (s.s_name, s.s_labels) in
      match Hashtbl.find_opt tbl key with
      | None ->
          Hashtbl.add tbl key s;
          order := key :: !order
      | Some prev -> Hashtbl.replace tbl key (merge_sample prev s))
    samples;
  List.rev_map (fun k -> Hashtbl.find tbl k) !order

(* ---------------- registry ---------------- *)

type ekind = E_counter of counter | E_gauge of gauge | E_hist of histogram

type entry = {
  e_name : string;
  e_labels : (string * string) list;
  e_help : string;
  e_kind : ekind;
}

type t = {
  r_enabled : bool A.t;
  r_nshards : int;
  r_lock : Mutex.t;
  mutable r_entries : entry list;  (** newest first *)
  mutable r_collectors : (int * string * (unit -> sample list)) list;
  mutable r_retired : sample list;
  mutable r_next : int;
  r_created_ns : int;
}

let create ?(enabled = true) () =
  {
    r_enabled = A.make enabled;
    r_nshards = min 64 (next_pow2 (Domain.recommended_domain_count ()));
    r_lock = Mutex.create ();
    r_entries = [];
    r_collectors = [];
    r_retired = [];
    r_next = 0;
    r_created_ns = now_ns ();
  }

let default = create ()
let set_enabled r v = A.set r.r_enabled v
let enabled r = A.get r.r_enabled

let locked r f =
  Mutex.lock r.r_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.r_lock) f

let register ~registry:r ~help ~labels ~name ~describe ~fresh ~extract =
  let labels = canon_labels labels in
  locked r (fun () ->
      match
        List.find_opt (fun e -> e.e_name = name && e.e_labels = labels) r.r_entries
      with
      | Some e -> (
          match extract e.e_kind with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s already registered as another kind (%s)"
                   name describe))
      | None ->
          let v, kind = fresh () in
          r.r_entries <- { e_name = name; e_labels = labels; e_help = help; e_kind = kind } :: r.r_entries;
          v)

let counter ?(registry = default) ?(help = "") ?(labels = []) name =
  register ~registry ~help ~labels ~name ~describe:"counter"
    ~fresh:(fun () ->
      let c =
        {
          c_enabled = registry.r_enabled;
          c_mask = registry.r_nshards - 1;
          c_cells = Array.init registry.r_nshards (fun _ -> A.make 0);
        }
      in
      (c, E_counter c))
    ~extract:(function E_counter c -> Some c | _ -> None)

let gauge ?(registry = default) ?(help = "") ?(labels = []) name =
  register ~registry ~help ~labels ~name ~describe:"gauge"
    ~fresh:(fun () ->
      let g = { g_cell = A.make 0. } in
      (g, E_gauge g))
    ~extract:(function E_gauge g -> Some g | _ -> None)

let histogram ?(registry = default) ?(help = "") ?(labels = [])
    ?(sub_bits = Hdr.default_sub_bits) name =
  register ~registry ~help ~labels ~name ~describe:"histogram"
    ~fresh:(fun () ->
      let h =
        {
          h_enabled = registry.r_enabled;
          h_sub_bits = sub_bits;
          h_mask = registry.r_nshards - 1;
          h_shards = Array.init registry.r_nshards (fun _ -> A.make None);
        }
      in
      (h, E_hist h))
    ~extract:(function E_hist h -> Some h | _ -> None)

type collector = int

let add_collector ?(registry = default) ~name fn =
  locked registry (fun () ->
      let id = registry.r_next in
      registry.r_next <- id + 1;
      registry.r_collectors <- (id, name, fn) :: registry.r_collectors;
      id)

let run_collector fn = try fn () with _ -> []

let remove_collector ?(registry = default) id =
  let found =
    locked registry (fun () ->
        let found = List.find_opt (fun (i, _, _) -> i = id) registry.r_collectors in
        registry.r_collectors <-
          List.filter (fun (i, _, _) -> i <> id) registry.r_collectors;
        found)
  in
  match found with
  | None -> ()
  | Some (_, _, fn) ->
      (* Final poll outside the lock (user code), retire inside it. *)
      let samples = run_collector fn in
      locked registry (fun () ->
          registry.r_retired <- canon_samples (registry.r_retired @ samples))

(* ---------------- snapshots ---------------- *)

let hshard_snapshot ~sub_bits s =
  (* Reads race benignly with concurrent observes: each cell is
     atomic, the aggregate is a monitoring-grade approximation. *)
  let buckets = ref [] and count = ref 0 in
  for i = Array.length s.hs_cells - 1 downto 0 do
    let n = A.get s.hs_cells.(i) in
    if n <> 0 then begin
      buckets := (i, n) :: !buckets;
      count := !count + n
    end
  done;
  {
    Hdr.sub_bits;
    buckets = !buckets;
    count = !count;
    sum = A.get s.hs_sum;
    min_v = A.get s.hs_min;
    max_v = A.get s.hs_max;
  }

let sample_of_entry e =
  let value =
    match e.e_kind with
    | E_counter c ->
        Counter (float_of_int (Array.fold_left (fun acc a -> acc + A.get a) 0 c.c_cells))
    | E_gauge g -> Gauge (A.get g.g_cell)
    | E_hist h ->
        Hist
          (Array.fold_left
             (fun acc cell ->
               match A.get cell with
               | None -> acc
               | Some s -> Hdr.merge acc (hshard_snapshot ~sub_bits:h.h_sub_bits s))
             (Hdr.empty ~sub_bits:h.h_sub_bits ())
             h.h_shards)
  in
  { s_name = e.e_name; s_labels = e.e_labels; s_help = e.e_help; s_value = value }

let snapshot ?(registry = default) () =
  let entries, collectors, retired =
    locked registry (fun () ->
        (registry.r_entries, registry.r_collectors, registry.r_retired))
  in
  let now = now_ns () in
  let live = List.rev_map sample_of_entry entries in
  let collected =
    List.concat_map (fun (_, _, fn) -> run_collector fn) (List.rev collectors)
  in
  {
    taken_ns = now;
    elapsed_ns = now - registry.r_created_ns;
    samples = canon_samples (live @ collected @ retired);
  }

let merge a b =
  {
    taken_ns = max a.taken_ns b.taken_ns;
    elapsed_ns = max a.elapsed_ns b.elapsed_ns;
    samples = canon_samples (a.samples @ b.samples);
  }

let relabel (k, v) snap =
  {
    snap with
    samples =
      List.map
        (fun s -> { s with s_labels = canon_labels ((k, v) :: List.remove_assoc k s.s_labels) })
        snap.samples;
  }

let find ?labels snap name =
  match labels with
  | None -> List.find_opt (fun s -> s.s_name = name) snap.samples
  | Some labels ->
      let labels = canon_labels labels in
      List.find_opt (fun s -> s.s_name = name && s.s_labels = labels) snap.samples

let total snap name =
  List.fold_left
    (fun acc s ->
      if s.s_name <> name then acc
      else match s.s_value with Counter v | Gauge v -> acc +. v | Hist _ -> acc)
    0. snap.samples

let hist_total snap name =
  List.fold_left
    (fun acc s ->
      match (s.s_name = name, s.s_value) with
      | true, Hist h -> ( match acc with None -> Some h | Some a -> Some (Hdr.merge a h))
      | _ -> acc)
    None snap.samples
  |> Option.value ~default:(Hdr.empty ())

(* ---------------- JSON ---------------- *)

let sample_to_json s =
  let kind, value =
    match s.s_value with
    | Counter v -> ("counter", Json.Float v)
    | Gauge v -> ("gauge", Json.Float v)
    | Hist h -> ("histogram", Hdr.to_json h)
  in
  Json.Obj
    [
      ("name", Json.Str s.s_name);
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.s_labels));
      ("help", Json.Str s.s_help);
      ("kind", Json.Str kind);
      ("value", value);
    ]

let snapshot_to_json snap =
  Json.Obj
    [
      ("taken_ns", Json.Int snap.taken_ns);
      ("elapsed_ns", Json.Int snap.elapsed_ns);
      ("samples", Json.List (List.map sample_to_json snap.samples));
    ]

let document ~meta snap =
  Json.Obj
    ([ ("schema", Json.Str "repro/metrics/v1") ]
    @ meta
    @ [ ("snapshot", snapshot_to_json snap) ])

(* ---------------- default-registry GC collector ---------------- *)

let () =
  ignore
    (add_collector ~registry:default ~name:"gc" (fun () ->
         let st = Gc.quick_stat () in
         [
           g_sample "repro_gc_minor_collections"
             ~help:"Minor GC collections since process start"
             (float_of_int st.Gc.minor_collections);
           g_sample "repro_gc_major_collections"
             ~help:"Major GC collections since process start"
             (float_of_int st.Gc.major_collections);
           g_sample "repro_gc_compactions" ~help:"Heap compactions"
             (float_of_int st.Gc.compactions);
           g_sample "repro_gc_minor_words" ~help:"Words allocated in the minor heap"
             (Gc.minor_words ());
           g_sample "repro_gc_promoted_words" ~help:"Words promoted to the major heap"
             st.Gc.promoted_words;
           g_sample "repro_gc_heap_words" ~help:"Major heap size in words"
             (float_of_int st.Gc.heap_words);
         ]))
